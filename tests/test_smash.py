"""Smash-type algebras and the left/right smash comparison."""
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import cyclic_document, map_from_columns
from hopfdual import catalog, crossed, smash
from hopfdual.actions import ComoduleAlgebraData, regular_comodule, trivial_action
from hopfdual.catalog import (
    ground_algebra,
    group_algebra,
    hopf_from_parts,
    product_ring_algebra,
    swap_action_data,
    sweedler_hopf,
)
from hopfdual.crossed import (
    crossed_table,
    trivial_cocycle,
    trivial_sigma,
    twisted_module_identity,
)
from hopfdual.errors import SideMismatch, ValidationError
from hopfdual.hopf import AlgebraData, tensor_algebra
from hopfdual.instancefile import parse_instance_dict
from hopfdual.linalg import free_module, kron_vec, sparse_vector, tensor_module, unit_vectors
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import (
    ModuleSide,
    SubalgebraU,
    hat_smash,
    hit_action_of_dual,
    left_smash,
    op_hat_smash,
    op_smash,
    right_smash,
    smash_compare,
)
from hopfdual.suites import applicable_suites, run_suite
from test_crossed import CROSSED_CASES, crossed_case
from test_duality import rebased_sweedler_Z3
from test_suites import patch_everywhere


def trivial_comodule(h, algebra):
    ring = algebra.ring
    cols = [kron_vec(ring, algebra.carrier.basis_vector(i), h.algebra.unit)
            for i in range(algebra.rank)]
    coaction = map_from_columns(
        algebra.carrier, tensor_module(algebra.carrier, h.carrier), cols)
    c = ComoduleAlgebraData(h, algebra, coaction)
    c.validate().require()
    return c


# --- SubalgebraU -------------------------------------------------------------


def test_full_dual_subalgebra():
    u = SubalgebraU.full_dual(group_algebra(ZZ, 2))
    assert u.rank == 2
    assert u.eps_coords == ((0, 1), (1, 1))


def test_span_of_counit_is_a_valid_U():
    h = group_algebra(ZZ, 2)
    u = SubalgebraU(h, [((0, 1), (1, 1))], ModuleSide.RIGHT)
    assert u.rank == 1
    assert u.eps_coords == ((0, 1),)


def test_non_summand_U_is_rejected():
    h = group_algebra(ZZ, 2)
    with pytest.raises(ValidationError):
        SubalgebraU(h, [((0, 1), (1, 1)), ((1, 2),)], ModuleSide.RIGHT)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(dense.RINGS), st.data())
def test_express_matches_the_dense_oracle(ring, data):
    # U = the functions on C4 constant on the cosets of C2; c·u + d lies in
    # span(U) exactly when d does, i.e. when d₀ = d₂ and d₁ = d₃
    elements = [(1, 0, 1, 0), (0, 1, 0, 1)]
    U = SubalgebraU(group_algebra(ring, 4), [sparse_vector(map(ring.of, u)) for u in elements],
                    ModuleSide.RIGHT)
    c = dense.draw_vector(data, ring, 2)
    d = dense.draw_vector(data, ring, 4)
    if data.draw(st.booleans()):
        d = (d[0], d[1], d[0], d[1])
    vec = tuple(ring.add(ring.add(ring.mul(c[0], ring.of(x)), ring.mul(c[1], ring.of(y))), z)
                for x, y, z in zip(*elements, d))
    got, want = U.express(sparse_vector(vec)), dense.subalgebra_express(U, vec)
    assert got == (None if want is None else sparse_vector(want))
    if d[0] == d[2] and d[1] == d[3]:
        assert got == sparse_vector((ring.add(c[0], d[0]), ring.add(c[1], d[1])))
    else:
        assert got is None


def test_side_mismatch_raises():
    h = group_algebra(ZZ, 2)
    u_left = SubalgebraU.full_dual(h, ModuleSide.LEFT)
    with pytest.raises(SideMismatch):
        right_smash(regular_comodule(h), u_left)
    u_right = SubalgebraU.full_dual(h, ModuleSide.RIGHT)
    with pytest.raises(SideMismatch):
        op_smash(regular_comodule(h), u_right)


# --- #(H,B) -------------------------------------------------------------------


def test_hat_smash_with_trivial_coaction_is_convolution():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    B = trivial_comodule(h, a)
    hat = hat_smash(h, B)
    conv = dense.ConvolutionAlgebra(h.coalgebra, a).algebra()
    assert hat.mult == conv.mult
    assert hat.unit == conv.unit


def test_hat_smash_on_regular_comodule_value():
    # Oracle (hand expansion): for f = [g ↦ g], f ⋆̂ f = 0 over Z[C₂].
    h = group_algebra(ZZ, 2)
    hat = hat_smash(h, regular_comodule(h))
    f = hat.carrier.basis_vector(1 * 2 + 1)  # b-part g, h-part g
    assert hat.product(f, f) == (0, 0, 0, 0)
    assert hat.validate().ok


def test_op_hat_smash_trivial_coaction_on_cocommutative_is_convolution():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    B = trivial_comodule(h, a)
    ophat = op_hat_smash(h, B)
    conv = dense.ConvolutionAlgebra(h.coalgebra, a).algebra()
    assert ophat.mult == conv.mult


def test_op_hat_smash_trivial_coaction_is_coopposite_convolution():
    # With ϱ trivial, (f ⋆̃ g)(h) = Σ f(h₂)g(h₁): convolution over H^cop.
    h4 = sweedler_hopf(QQ)
    a = ground_algebra(QQ)
    B = trivial_comodule(h4, a)
    ophat = op_hat_smash(h4, B)
    conv = dense.ConvolutionAlgebra(h4.coalgebra.co_opposite(), a).algebra()
    assert ophat.mult == conv.mult


@pytest.mark.parametrize("make", [lambda: group_algebra(ZZ, 3), lambda: sweedler_hopf(QQ),
                                  lambda: sweedler_hopf(Zmod(3))])
def test_u_star_matches_the_convolution_table_of_the_dual(make):
    # U multiplies functionals with bilinear on the transpose of Δ; for
    # U = H* in the basis δ_i its ⋆ witnesses are the products themselves,
    # and the oracle is H* as the whole flat-vector convolution table Hom(H, R)
    h = make()
    dual = dense.dual_algebra(h)
    basis = [h.carrier.basis_vector(i) for i in range(h.rank)]
    U = SubalgebraU.full_dual(h)
    for (i, u), (j, v) in itertools.product(enumerate(basis), repeat=2):
        want = sparse_vector(dual.product(u, v))
        got = U.star_witness[i, j]
        assert got == want and [type(x) for _, x in got] == [type(x) for _, x in want]


@pytest.mark.parametrize("name", [n for n, _, _ in catalog.list_entries()]
                         + ["sweedler_Z3_rebased"])
@pytest.mark.parametrize("side", list(ModuleSide))
def test_closure_data_matches_the_dense_oracle(name, side):
    # U's ε-coordinates, ⋆ witnesses and action witnesses, read off the sparse
    # tables and expressed by the split, against the dense closure oracle, on
    # every catalog Hopf algebra and the rebased Sweedler algebra: H* in the
    # basis δ_i and in the basis δ_0, δ_0+δ_1, …, δ_0+δ_{r-1}
    h = (rebased_sweedler_Z3().action.hopf if name == "sweedler_Z3_rebased"
         else catalog.get(name).hopf_data())
    ring, r = h.ring, h.rank
    shifted = [((0, ring.one),)] + [((0, ring.one), (i, ring.one)) for i in range(1, r)]
    for elements in (unit_vectors(ring, r), shifted):
        U = SubalgebraU(h, elements, side)
        eps, stars, actions = dense.subalgebra_closure(U)
        assert U.eps_coords == sparse_vector(eps)
        assert U.star_witness == {key: sparse_vector(v) for key, v in stars.items()}
        assert U.action_witness == {key: sparse_vector(v) for key, v in actions.items()}


# --- B#U and B#^opU -------------------------------------------------------------


def test_right_smash_trivial_coaction_is_componentwise():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    B = trivial_comodule(h, a)
    U = SubalgebraU.full_dual(h)
    rs = right_smash(B, U)
    expected = tensor_algebra(a, dense.dual_algebra(h))
    assert rs.mult == expected.mult


def test_right_smash_on_regular_comodule_is_rank_four():
    h = group_algebra(ZZ, 2)
    rs = right_smash(regular_comodule(h), SubalgebraU.full_dual(h))
    assert rs.carrier.rank == 4
    assert rs.validate().ok


def test_op_smash_trivial_coaction_cocommutative_componentwise():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    B = trivial_comodule(h, a)
    U = SubalgebraU.full_dual(h, ModuleSide.LEFT)
    os_ = op_smash(B, U)
    expected = tensor_algebra(a, dense.dual_algebra(h))
    assert os_.mult == expected.mult


def test_restricted_U_right_smash():
    h = group_algebra(ZZ, 2)
    U = SubalgebraU(h, [((0, 1), (1, 1))], ModuleSide.RIGHT)
    rs = right_smash(regular_comodule(h), U)
    assert rs.carrier.rank == 2


# --- A#H ------------------------------------------------------------------------


def test_left_smash_trivial_action_is_tensor():
    h = group_algebra(ZZ, 2)
    a = product_ring_algebra(ZZ, 2)
    ls = left_smash(trivial_action(h, a))
    expected = tensor_algebra(a, h.algebra)
    assert ls.mult == expected.mult


def test_left_smash_swap_action_table():
    w = swap_action_data(ZZ)
    ls = left_smash(w)
    assert not ls.is_commutative()
    assert ls.mult == crossed_table(w, trivial_cocycle(w).sigma)


def test_left_smash_requires_module_action():
    from tests.test_crossed import shift_action_z3

    with pytest.raises(ValidationError):
        left_smash(shift_action_z3())


# --- the comparison -------------------------------------------------------------


def test_hit_action_of_dual_validates():
    for h in (group_algebra(ZZ, 2), sweedler_hopf(QQ)):
        hit_action_of_dual(h)  # raises if the weak-action axioms fail


@pytest.mark.parametrize("make", [lambda: catalog.get("sweedler4_Q").hopf_data(),
                                  lambda: catalog.get("gauss").hopf_data(),
                                  lambda: rebased_sweedler_Z3().action.hopf],
                         ids=["sweedler4_Q", "gauss", "sweedler_Z3_rebased"])
def test_hit_action_of_dual_matches_the_term_by_term_oracle(make):
    h = make()
    dense.assert_bit_identical(hit_action_of_dual(h).action, dense.hit_action_of_dual(h))


@pytest.mark.parametrize("make", [
    lambda: group_algebra(ZZ, 2),
    lambda: group_algebra(QQ, 3),
    lambda: sweedler_hopf(QQ),
    lambda: sweedler_hopf(Zmod(3)),
    lambda: group_algebra(Zmod(6), 2),
])
def test_smash_compare(make):
    assert smash_compare(make())


def failing_tables(monkeypatch, fails):
    """A kernel mutant: the associativity scan reports (0, 0, 0) for every
    table ``fails(table)`` picks and scans the others as before."""
    scan = AlgebraData._axiom_failures
    monkeypatch.setattr(AlgebraData, "_axiom_failures",
                        lambda self: ((0, 0, 0), None) if fails(self) else scan(self))


def smash_records(entry):
    return {r.check_id: r for r in run_suite(entry, "smash").sections[0].records}


def test_a_failed_table_in_smash_compare_is_a_failed_record(monkeypatch):
    # the rank-16 tables of Sweedler's algebra fail, so A#H on H⊗H* does not
    # build: smash.compare fails with that error, keeping its place
    entry = catalog.get("sweedler4_Q")
    failing_tables(monkeypatch, lambda alg: alg.rank == 16)
    records = smash_records(entry)
    assert list(records)[0] == "smash.compare"
    compare = records["smash.compare"]
    assert compare.statement == ("left and right smash structure constants on "
                                 "H⊗H* are identical")
    assert not compare.passed
    assert compare.witness == "A#H: algebra.assoc failed (witness: (1⊗1*,1⊗1*,1⊗1*))"


SUBJECTS = {"smash.hat": "#(H,B)", "smash.op_hat": "#op(H,B)", "smash.right": "B#U",
            "smash.op": "B#opU", "smash.left": "A#H"}


def smash_table(check_id, h, cp):
    """The table that the smash suite's ``check_id`` builds for U = H*."""
    U = SubalgebraU.full_dual(h, ModuleSide.LEFT if check_id == "smash.op"
                              else ModuleSide.RIGHT)
    return {"smash.hat": lambda: hat_smash(h, regular_comodule(h)),
            "smash.op_hat": lambda: op_hat_smash(h, regular_comodule(h)),
            "smash.right": lambda: right_smash(cp.comodule, U),
            "smash.op": lambda: op_smash(cp.comodule, U),
            "smash.left": lambda: left_smash(cp.action)}[check_id]()


@pytest.mark.parametrize("name,check_id", [
    ("sweedler4_Z3", "smash.hat"), ("sweedler4_Z3", "smash.op_hat"),
    *(("swap_smash", check_id) for check_id in SUBJECTS)])
def test_each_smash_record_names_its_own_failed_table(monkeypatch, name, check_id):
    entry = catalog.get(name)
    cp = entry.payload if entry.kind == "crossed" else None
    table = smash_table(check_id, entry.hopf_data(), cp).mult
    failing_tables(monkeypatch, lambda alg: alg.mult == table)
    failed = {i: r.witness for i, r in smash_records(entry).items() if not r.passed}
    assert failed[check_id].startswith(f"{SUBJECTS[check_id]}: algebra.assoc failed")
    # #(H,H) has the structure constants of the left smash on H⊗H*, which
    # smash.compare builds first, so that record fails with the same table
    also = {"smash.compare": "A#H:"} if check_id == "smash.hat" else {}
    assert set(failed) == {check_id, *also}
    assert all(failed[i].startswith(subject) for i, subject in also.items())


# --- the index-arithmetic builders against the term-by-term oracles ----------

# crossed product and U span (None: all of H*).  U = span{ε, α} of the two
# characters of Sweedler's algebra is a proper ⋆- and action-closed summand;
# the rebased Sweedler algebra has coproduct, coaction and product constants
# other than 0 and 1.
BUILDER_CASES = {
    "sweedler4_smash_Q": (lambda: catalog.get("sweedler4_smash_Q").payload, None),
    "gauss": (lambda: catalog.get("gauss").payload, None),
    "m2_conj_smash": (lambda: catalog.get("m2_conj_smash").payload, None),
    "sweedler4_smash_Q_characters": (lambda: catalog.get("sweedler4_smash_Q").payload,
                                     [(1, 1, 0, 0), (1, -1, 0, 0)]),
    "sweedler_Z3_rebased": (rebased_sweedler_Z3, None),
}


def assert_same_algebra(got, want):
    dense.assert_bit_identical(got.mult, want.mult)
    assert got.unit == want.unit
    assert [type(x) for x in got.unit] == [type(x) for x in want.unit]


@pytest.mark.parametrize("side", list(ModuleSide))
@pytest.mark.parametrize("name", sorted(BUILDER_CASES))
def test_coordinate_smash_matches_the_term_by_term_oracle(name, side):
    make, span = BUILDER_CASES[name]
    cp = make()
    h = cp.action.hopf
    U = (SubalgebraU.full_dual(h, side) if span is None
         else SubalgebraU(h, [sparse_vector(map(h.ring.of, u)) for u in span], side))
    if span is not None:
        assert U.rank < h.rank
    op = side is ModuleSide.LEFT
    got = (op_smash if op else right_smash)(cp.comodule, U)
    assert_same_algebra(got, dense.coordinate_smash(cp.comodule, U, op))
    dense.assert_bit_identical(got.mult, dense.coordinate_smash_indexed(cp.comodule, U, op))


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("name", ["gauss", "m2_conj_smash", "sweedler4_smash_Q",
                                  "sweedler_Z3_rebased"])
def test_hom_smashes_match_the_term_by_term_oracles(name, regular):
    cp = BUILDER_CASES[name][0]()
    h = cp.action.hopf
    B = regular_comodule(h) if regular else cp.comodule
    assert_same_algebra(hat_smash(h, B), dense.hat_smash(h, B))
    assert_same_algebra(op_hat_smash(h, B), dense.op_hat_smash(h, B))


# --- A#H by index arithmetic against the term-by-term oracle ------------------


@pytest.mark.parametrize("name", sorted(CROSSED_CASES))
def test_left_smash_matches_the_term_by_term_oracle(name):
    action, _ = crossed_case(name)
    if dense.twisted_module_identity(action, trivial_sigma(action)):
        got = left_smash(action).mult
        dense.assert_bit_identical(got, dense.left_smash_table(action))
        dense.assert_bit_identical(got, dense.left_smash_indexed(action))
    else:
        with pytest.raises(ValidationError,
                           match="left smash requires a module-algebra action"):
            left_smash(action)


def suite_instance(name):
    """A catalog entry, or R[C5]/R[C6] over Z/11 parsed from its document."""
    if name.startswith("Zmod11_C"):
        return parse_instance_dict(cyclic_document(int(name[-1]), 11)).to_entry()
    return catalog.get(name)


# the instances the smash suite runs on (every catalog entry but
# sweedler4_Z, whose only suite is hopf)
SUITE_INSTANCES = [name for name, _, _ in catalog.list_entries()
                   if "smash" in applicable_suites(catalog.get(name))] + ["Zmod11_C5",
                                                                         "Zmod11_C6"]


def left_smash_actions(name):
    """The module-algebra actions the suites hand to ``left_smash`` for one
    instance: the hit action of the dual of its Hopf algebra and, for a
    crossed entry with σ = η∘(ε⊗ε), its action; the rebased Sweedler algebra
    over Z/3 gives its hit action and its trivial action on Z/3."""
    if name == "sweedler_Z3_rebased":
        cp = rebased_sweedler_Z3()
        return [hit_action_of_dual(cp.action.hopf), cp.action]
    entry = suite_instance(name)
    actions = [hit_action_of_dual(entry.hopf_data())]
    if entry.kind == "crossed":
        cp = entry.payload
        if cp.cocycle.sigma == trivial_sigma(cp.action):
            actions.append(cp.action)
    return actions


@pytest.mark.parametrize("name", SUITE_INSTANCES + ["sweedler_Z3_rebased"])
def test_left_smash_is_the_trivial_cocycle_crossed_product(name):
    # left_smash builds only its own table, so the equality with the crossed
    # product for σ = η∘(ε⊗ε) is required here, entry types included
    for action in left_smash_actions(name):
        got = left_smash(action).mult
        dense.assert_bit_identical(got, crossed_table(action, trivial_sigma(action)))
        dense.assert_bit_identical(got, dense.left_smash_indexed(action))


@pytest.mark.parametrize("name", SUITE_INSTANCES)
def test_smash_builders_rebuild_no_closure_data(monkeypatch, name):
    # U solved and checked its ⋆- and action-closure coordinates when it was
    # built, and A#H is not compared with a rebuilt crossed table: no U
    # express, ⋆ or regular action (the functions smash's split_coordinates
    # and bilinear return), action table, algebra product or crossed table
    # runs inside _coordinate_smash or left_smash
    builders = {smash._coordinate_smash.__code__, smash.left_smash.__code__}
    seen, inside = set(), []

    def guarded(what, original):
        def call(*args, **kwargs):
            seen.add(what)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in builders:
                    inside.append((what, frame.f_code.co_name))
                    break
                frame = frame.f_back
            return original(*args, **kwargs)
        return call

    def returns_guarded(what, original):
        def call(*args, **kwargs):
            fn = original(*args, **kwargs)
            return fn and guarded(what, fn)
        return call

    monkeypatch.setattr(smash, "split_coordinates",
                        returns_guarded("express", smash.split_coordinates))
    monkeypatch.setattr(smash, "bilinear", returns_guarded("closure product", smash.bilinear))
    monkeypatch.setattr(smash, "regular_action_table",
                        guarded("action table", smash.regular_action_table))
    monkeypatch.setattr(AlgebraData, "product", guarded("product", AlgebraData.product))
    patch_everywhere(monkeypatch, crossed, "crossed_table",
                     guarded("crossed_table", crossed.crossed_table))
    entry = suite_instance(name)
    for suite in ("smash", "duality"):
        run_suite(entry, suite)
    assert {"express", "closure product", "action table", "product"} <= seen  # U is built
    assert inside == []


def test_left_smash_needs_no_cocycle_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate_cocycle called")

    monkeypatch.setattr(crossed, "validate_cocycle", refuse)
    action, _ = crossed_case("sweedler4_Q_hit")
    assert left_smash(action).validate().ok


def z_s3():
    """Z[S₃] from its structure constants: basis the six permutations of
    {0, 1, 2} (identity first), g·g' the composite g∘g', Δ(g) = g⊗g, S(g) = g⁻¹."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    carrier = free_module(ZZ, ["".join(map(str, p)) for p in perms])
    mult = [(i, j, index[tuple(p[x] for x in q)], 1)
            for i, p in enumerate(perms) for j, q in enumerate(perms)]
    inverse = [carrier.basis_vector(index[tuple(p.index(x) for x in range(3))])
               for p in perms]
    return hopf_from_parts(carrier, mult, carrier.basis_vector(0),
                           [(i, i, i, 1) for i in range(6)], [1] * 6,
                           antipode_cols=inverse, twisted_cols=inverse)


def test_z_s3_hit_action_smash_matches_the_oracles():
    # A = Z[S₃] is noncommutative and the acting Z^{S₃} is not cocommutative
    h = z_s3()
    assert not h.algebra.is_commutative()
    hit = hit_action_of_dual(h)
    assert not hit.bialgebra.coalgebra.is_cocommutative()
    sigma = trivial_sigma(hit)
    assert twisted_module_identity(hit, sigma)
    assert dense.twisted_module_identity(hit, sigma)
    dense.assert_bit_identical(left_smash(hit).mult, dense.left_smash_table(hit))
    assert smash_compare(h)
