"""Acceptance criteria: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.  Heavy structures are built once per session via
fixtures; every check is exact (tolerance = equality in the ring).
"""
import itertools
import random

import pytest

from builders import (
    FunctionalSpan,
    diagram,
    full_dual_lambda,
    lambda_coordinates,
    map_from_columns,
    unvalidated_hopf,
)
from hopfdual.actions import regular_comodule, trivial_action
from hopfdual.catalog import (
    get,
    ground_algebra,
    group_algebra,
    group_algebra_parts,
    list_entries,
    swap_action_data,
    sweedler_hopf,
    sweedler_parts,
)
from hopfdual.crossed import (
    cocycle_flags,
    crossed_from_integral,
    direct_product_checks,
    integral_from_crossed,
    opposite_crossed,
)
from hopfdual.duality import (
    CoactionSide,
    DiagramSide,
    chi_map,
    coaction_table,
    duality_iso,
    epsilon_maps,
    final_chain,
    lambda_map,
    matrix_iso,
    phi_maps,
)
from hopfdual.errors import NotInvertible
from hopfdual.hopf import (
    certify_algebra_iso,
    compute_antipode,
    compute_twisted_antipode,
    convolution_invert,
    endomorphism_algebra,
    validate_hopf,
)
from hopfdual.linalg import (
    LinearMap,
    PreparedSolver,
    determinant,
    invert_map,
    kron_vec,
    sparse_vector,
    tensor_module,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.smash import (
    ModuleSide,
    SubalgebraU,
    op_smash,
    right_smash,
    smash_compare,
)
from hopfdual.suites import run_suite


def verdict(num, description):
    print(f"\nacceptance {num:02d}: PASS — {description}")


HOPF_ENTRIES = [name for name, kind, _ in list_entries() if kind == "hopf"]
CROSSED_ENTRIES = [name for name, kind, _ in list_entries() if kind == "crossed"]


@pytest.fixture(scope="module")
def crossed_products():
    return {name: get(name).payload for name in CROSSED_ENTRIES}


@pytest.fixture(scope="module")
def diagrams(crossed_products):
    """Both-side diagrams and certified duality isos, built once."""
    out = {}
    for name, cp in crossed_products.items():
        h = cp.action.hopf
        for side, mside in ((DiagramSide.RIGHT, ModuleSide.RIGHT),
                            (DiagramSide.OP, ModuleSide.LEFT)):
            U = SubalgebraU.full_dual(h, mside)
            diag = diagram(cp, U, side)
            iso = duality_iso(diag, lambda_coordinates(h, U))
            out[name, side] = (U, diag, iso)
    return out


def test_01_hopf_validation():
    for name in HOPF_ENTRIES + CROSSED_ENTRIES:
        assert validate_hopf(get(name).hopf_data()).ok, name
    # negative control: mutated antipode fails with a witness
    from hopfdual.hopf import HopfData

    h = unvalidated_hopf(*group_algebra_parts(ZZ, 2))
    bad = map_from_columns(h.carrier, h.carrier,
                                 [h.carrier.basis_vector(0)] * 2)
    rep = validate_hopf(HopfData(h.bialgebra, bad, h.twisted_antipode))
    failures = {r.check_id: r.witness for r in rep.failures()}
    assert "hopf.antipode" in failures and failures["hopf.antipode"] == "g"
    verdict(1, "all catalog entries pass every axiom; the mutated antipode "
               "fails with witness g")


def test_02_antipode_oracle():
    # oracle: the closed-form group inverse, independent of the solver
    for n in (2, 3, 4):
        h = unvalidated_hopf(*group_algebra_parts(ZZ, n))
        expected = map_from_columns(
            h.carrier, h.carrier,
            [h.carrier.basis_vector((-i) % n) for i in range(n)])
        assert compute_antipode(h.bialgebra) == expected, n
    h4 = unvalidated_hopf(*sweedler_parts(QQ))
    s = compute_antipode(h4.bialgebra)
    # S(x) = -gx (hand-derived column), S² ≠ id, S⁴ = id
    assert s.column(2) == (0, 0, 0, QQ.of(-1))
    ident = LinearMap.identity(h4.carrier)
    assert (s @ s) != ident and (s @ s @ s @ s) == ident
    assert compute_twisted_antipode(h4.bialgebra) == invert_map(s)
    verdict(2, "cyclic-group antipodes match the closed form; the rank-4 "
               "antipode has order four and S̄ = S⁻¹ as matrices")


def test_03_unit_associativity_biconditional(crossed_products):
    from tests.test_crossed import scaled_trivial_sigma, shift_action_z3

    pairs = []
    for name in ("triv_C2", "gauss", "swap_smash", "Zmod6_C2",
                 "sweedler4_smash_Q", "m2_conj_smash"):
        cp = crossed_products[name]
        pairs.append((name, cp.action, cp.cocycle.sigma))
    # three controls, each violating exactly one flag
    act = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    pairs.append(("non_normal", act, scaled_trivial_sigma(act, 2)))
    swap = swap_action_data(ZZ)
    b = swap.bialgebra
    cols = [swap.algebra.carrier.vector((1, -1)) if i == j == 1
            else swap.algebra.unit for i in range(2) for j in range(2)]
    sigma_nc = map_from_columns(
        tensor_module(b.carrier, b.carrier), swap.algebra.carrier, cols)
    pairs.append(("non_cocycle", swap, sigma_nc))
    shift = shift_action_z3()
    pairs.append(("non_twisted", shift, scaled_trivial_sigma(shift, 1)))

    single_violations = 0
    for name, action, sigma in pairs:
        flags = cocycle_flags(action, sigma)
        unit_ok, assoc_ok = direct_product_checks(action, sigma)
        assert unit_ok == flags.normal, name
        if flags.normal:
            assert assoc_ok == (flags.cocycle and flags.twisted_module), name
        if [flags.normal, flags.cocycle, flags.twisted_module].count(False) == 1:
            single_violations += 1
    assert len(pairs) >= 6 and single_violations >= 2
    verdict(3, f"unit ⟺ normal and associativity ⟺ cocycle∧twisted-module on "
               f"{len(pairs)} pairs ({single_violations} single-flag violations)")


def test_04_phi_and_lambda_isomorphisms():
    for name in HOPF_ENTRIES:
        h = get(name).payload
        assert h.rank <= 4
        phi_maps(h, DiagramSide.RIGHT)   # raises unless inverse+multiplicative
        phi_maps(h, DiagramSide.OP)
        U = SubalgebraU.full_dual(h, ModuleSide.RIGHT)
        UL = SubalgebraU.full_dual(h, ModuleSide.LEFT)
        end = endomorphism_algebra(h.carrier)
        certify_algebra_iso(right_smash(regular_comodule(h), U),
                            end, lambda_map(h, U), "λ")
        certify_algebra_iso(op_smash(regular_comodule(h), UL),
                            end.opposite(), lambda_map(h, UL), "λ̄")
    verdict(4, "φ pairs are mutually inverse and multiplicative; λ and λ̄ are "
               "unital algebra isomorphisms for U = H* on every catalog "
               "Hopf algebra")


def test_05_left_right_smash_agree():
    for maker in (lambda: group_algebra(ZZ, 2), lambda: group_algebra(QQ, 3),
                  lambda: sweedler_hopf(QQ)):
        assert smash_compare(maker())
    verdict(5, "left- and right-smash structure constants coincide on H⊗H* "
               "for Z[C2], Q[C3] and the rank-4 algebra over Q")


def test_06_epsilon_conjugation(crossed_products):
    seen = set()
    for name, cp in crossed_products.items():
        h = cp.action.hopf
        key = (repr(cp.ring), h.rank, cp.action.algebra.rank)
        if key in seen:
            continue
        seen.add(key)
        # round trips and χ = ε∘α / χ̄ = ε̄∘ᾱ are asserted inside
        for side in DiagramSide:
            epsilon_maps(h, cp.action.algebra, *full_dual_lambda(h, side), side)
    verdict(6, "ε/ε⁻¹ and the barred pair round-trip to the identity and "
               "factor χ = ε∘α exactly for every catalog (A,H)")


def test_07_diagram_commutativity(diagrams, crossed_products):
    for name in CROSSED_ENTRIES:
        for side in (DiagramSide.RIGHT, DiagramSide.OP):
            U, diag, _ = diagrams[name, side]
            # build_diagram already asserted π∘α = γ and π∘δ = χ; re-assert
            assert (diag.pi @ diag.alpha) == diag.gamma, (name, side)
            assert (diag.pi @ diag.delta) == diag.chi, (name, side)
            ring = crossed_products[name].ring
            assert ring.is_unit(determinant(diag.pi)), (name, side)
    verdict(7, "π∘α = γ and π∘δ = χ hold exactly on both sides with π "
               "invertible for every catalog crossed product at U = H*")


def test_08_duality_isomorphisms(diagrams):
    for name in CROSSED_ENTRIES:
        for side in (DiagramSide.RIGHT, DiagramSide.OP):
            _, _, iso = diagrams[name, side]
            assert iso.inverse @ iso.map == LinearMap.identity(iso.map.domain)
    verdict(8, "χ⁻¹∘γ is a certified unital algebra isomorphism on all basis "
               "pairs, both sides, for every catalog crossed product")


def test_09_matrix_algebra_route(crossed_products, diagrams):
    for name, n in (("triv_C2", 2), ("gauss", 2), ("triv_C3", 3)):
        U, _, leg1 = diagrams[name, DiagramSide.RIGHT]
        cp = crossed_products[name]
        res = matrix_iso(cp, lambda_map(cp.action.hopf, U), leg1)
        assert res.n == n
        assert res.iso.map.codomain.rank == n * n
    # negative control: a rank-2 span of index 2 in H* gives det(χ) = ±4
    cp = crossed_products["triv_C2"]
    h = cp.action.hopf
    span = FunctionalSpan(h, [(1, 1), (1, -1)])
    chi = chi_map(h, cp.action.algebra, lambda_map(h, span), DiagramSide.RIGHT)
    with pytest.raises(NotInvertible) as exc:
        invert_map(chi)
    assert not ZZ.is_unit(exc.value.determinant)
    verdict(9, "the end-to-end matrix-algebra isomorphisms certify with rank "
               "n²; a non-unit determinant leg raises NotInvertible instead")


def test_10_coaction_tables():
    for ring in (QQ, Zmod(3)):
        h = sweedler_hopf(ring)
        for side in (CoactionSide.UPSILON, CoactionSide.OMEGA):
            table = coaction_table(h, side)
            assert table.report.ok, (repr(ring), side)
    for n in (2, 3):
        h = group_algebra(ZZ, n)
        for side in (CoactionSide.UPSILON, CoactionSide.OMEGA):
            table = coaction_table(h, side)
            assert table.report.ok
            for i in range(h.rank):
                assert table.map.column(i) == kron_vec(
                    ZZ, h.algebra.unit, h.carrier.basis_vector(i))
    verdict(10, "coaction conditions (1-a)–(1-c), (3), (4) hold exhaustively "
                "for the rank-4 algebra over Q and Z/3; group-algebra "
                "coactions are trivial")


def test_11_cleft_round_trips(crossed_products, diagrams):
    for name, cp in crossed_products.items():
        cl = integral_from_crossed(cp)
        # θ⁻¹ equals the convolution inverse of θ
        assert convolution_invert(cp.action.hopf.coalgebra, cp.product_algebra,
                                  cl.theta) == cl.theta_inv, name
        ext = crossed_from_integral(cl)
        assert ext.crossed.action.action == cp.action.action, name
        assert ext.crossed.cocycle.sigma == cp.cocycle.sigma, name
        # route equality: transporting along ι(a)θ(h) reproduces the direct iso
        U, _, direct = diagrams[name, DiagramSide.RIGHT]
        from hopfdual.linalg import kron

        transport = kron(ext.iso.inverse, LinearMap.identity(U.module))
        routed = direct.map @ transport
        assert routed == direct.map, name  # the transport is the identity here
    verdict(11, "the cleft round trip recovers (action, σ) exactly; θ⁻¹ "
                "equals the convolution inverse; cleft and direct routes "
                "give equal matrices")


def test_12_opposite_route(crossed_products, diagrams):
    for name in ("gauss", "swap_smash", "Zmod6_C2"):
        res = opposite_crossed(crossed_products[name],
                               integral_from_crossed(crossed_products[name]))
        assert res.tau.flags.all_true, name
        assert res.colinear, name
    cp = crossed_products["swap_smash"]
    U, _, direct = diagrams["swap_smash", DiagramSide.RIGHT]
    chain = final_chain(cp, U, opposite_crossed(cp, integral_from_crossed(cp)), direct,
                        right_smash(regular_comodule(cp.action.hopf), U))
    assert chain.report.ok
    assert chain.equal_to_direct
    verdict(12, "τ validates as an invertible cocycle with certified "
                "comodule-algebra isomorphism; the four-step chain composes "
                "and equals the direct route on the coordinate-swap instance")


def enumerate_solutions(rows, rhs, n):
    m = len(rows)
    k = len(rows[0]) if m else 0
    return {
        x for x in itertools.product(range(n), repeat=k)
        if all(sum(rows[i][j] * x[j] for j in range(k)) % n == rhs[i] % n
               for i in range(m))
    }


def expand_solutions(solver, rhs, n, k):
    """The solution set of A·x = rhs over Z/n: the solver's particular
    solution plus the span of its kernel, written out densely."""
    x = solver.solve(sparse_vector(rhs))
    if x is None:
        return set()
    span = {(0,) * k}
    for gen in map(dict, solver.kernel()):
        span = {tuple((v[i] + c * gen.get(i, 0)) % n for i in range(k))
                for c in range(n) for v in span}
    x = dict(x)
    return {tuple((x.get(i, 0) + s[i]) % n for i in range(k)) for s in span}


def test_13_kernel_correctness():
    from hopfdual.linalg import free_module

    rng = random.Random(20260810)
    checked = 0
    for n in (4, 6, 8):
        ring = Zmod(n)
        for _ in range(40):
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            rows = [[rng.randrange(n) for _ in range(k)] for _ in range(m)]
            rhs = [rng.randrange(n) for _ in range(m)]
            lm = LinearMap(free_module(ring, [f"d{i}" for i in range(k)]),
                           free_module(ring, [f"c{i}" for i in range(m)]), rows)
            solver = PreparedSolver(ring, lm.sparse_columns(), m)
            assert expand_solutions(solver, rhs, n, k) == enumerate_solutions(rows, rhs, n)
            checked += 1
    assert checked >= 100
    # unimodular integer systems vs forward/back substitution
    for _ in range(40):
        size = rng.randint(1, 4)
        L = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0)
              for j in range(size)] for i in range(size)]
        Umat = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
                 for j in range(size)] for i in range(size)]
        A = [[sum(L[i][t] * Umat[t][j] for t in range(size))
              for j in range(size)] for i in range(size)]
        b = [rng.randint(-9, 9) for _ in range(size)]
        # oracle: forward substitution for L, back substitution for U
        y = [0] * size
        for i in range(size):
            y[i] = b[i] - sum(L[i][j] * y[j] for j in range(i))
        x = [0] * size
        for i in reversed(range(size)):
            x[i] = y[i] - sum(Umat[i][j] * x[j] for j in range(i + 1, size))
        lm = LinearMap(free_module(ZZ, [f"d{i}" for i in range(size)]),
                       free_module(ZZ, [f"c{i}" for i in range(size)]), A)
        solver = PreparedSolver(ZZ, lm.sparse_columns(), size)
        assert solver.solve(sparse_vector(b)) == sparse_vector(x)
        assert solver.kernel() == ()
    verdict(13, "Z/n solving matches exhaustive enumeration on 120 random "
                "systems (n ∈ {4,6,8}); integer solving matches "
                "back-substitution on unimodular systems")


def test_catalog_suites_all_green():
    # the full verification surface over the whole catalog
    for name, _, _ in list_entries():
        report = run_suite(get(name), "all")
        assert report.ok, name
