"""Every map the library computes is written as canonical sparse columns.

Each builder is required to agree bit for bit, entry types included, with
its dense-column form in ``dense_oracle`` (``hom_scatter`` into a dense list,
then ``DenseMap.from_columns`` through the ring), on every catalog entry on
both diagram sides, on R[C5] and R[C6] over Z/11 parsed from
``builders.cyclic_document``, and on the rebased Sweedler algebra.  A guard
requires that a full ``run_suite`` on those instances runs the normalising
``LinearMap`` constructor only from the input layers (``catalog`` and
``instancefile``), and that ``hom_scatter`` only ever adds into a dict.
"""
import sys
from fractions import Fraction

import pytest

import dense_oracle as dense
from builders import cyclic_document, map_to_vec
from test_duality import rebased_sweedler_Z3
from hopfdual import catalog, hopf, linalg
from hopfdual.actions import action_from_endomorphisms, coinvariants
from hopfdual.catalog import (
    CatalogEntry,
    group_algebra_parts,
    hopf_from_parts,
    matrix_conjugation_action,
    sweedler_parts,
)
from hopfdual.crossed import (
    CleftData,
    cleft_maps,
    crossed_from_integral,
    integral_from_crossed,
    opposite_crossed,
)
from hopfdual.duality import (
    CoactionSide,
    DiagramSide,
    alpha_map,
    coaction_table,
    compat_maps,
    delta_map,
    epsilon_maps,
    gamma_map,
    lambda_map,
    nu_map,
    phi_maps,
    pi_map,
)
from hopfdual.hopf import (
    compute_antipode,
    compute_twisted_antipode,
    convolution_invert,
    tensor_coalgebra,
)
from hopfdual.instancefile import parse_instance_dict
from hopfdual.linalg import LinearMap, dual_module
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.suites import Derived, applicable_suites, run_suite

REBASED = "sweedler4_Z3_rebased"
INSTANCES = [name for name, _, _ in catalog.list_entries()] + [
    "Zmod11_C5", "Zmod11_C6", REBASED]
SIDES = [DiagramSide.RIGHT, DiagramSide.OP]
COACTION_OF = {DiagramSide.RIGHT: CoactionSide.UPSILON, DiagramSide.OP: CoactionSide.OMEGA}


def instance(name: str) -> CatalogEntry:
    if name.startswith("Zmod11_C"):
        return parse_instance_dict(cyclic_document(int(name[-1]), 11)).to_entry()
    if name == REBASED:
        return CatalogEntry(REBASED, "Sweedler's algebra over Z/3 in the basis "
                            "1, g, 1 + x, gx, as A#H with A = Z/3", "crossed", Zmod(3),
                            _payload=rebased_sweedler_Z3())
    return catalog.get(name)


def assert_pairs(pairs):
    for got, want in pairs:
        dense.assert_bit_identical(got, want)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", INSTANCES)
def test_duality_maps_match_their_dense_column_builders(name, side):
    ctx = Derived(instance(name))
    h, cp = ctx.hopf, ctx.diagram_crossed
    A, U = cp.action.algebra, ctx.u(side)
    nu = nu_map(cp) if side is DiagramSide.RIGHT else LinearMap.identity(cp.carrier)
    assert_pairs([
        (lambda_map(h, U), dense.lambda_map(h, U)),
        (alpha_map(h, A, U), dense.alpha_map(h, A, U)),
        *zip((gamma_map(cp, U, side), delta_map(cp, U, side)),
             dense.tabulated_maps(cp, U, side)),
        *zip(compat_maps(cp, side), dense.hom_value_maps(cp, side)),
        *zip(phi_maps(h, side), dense.phi_maps(h, side)),
        *zip(epsilon_maps(h, A, U, lambda_map(h, U), side), dense.epsilon_maps(h, A, side)),
        (pi_map(cp, side, nu), dense.pi_map(cp, side)),
        (coaction_table(h, COACTION_OF[side]).map,
         dense.coaction_table(h, COACTION_OF[side]).map),
        (LinearMap.from_sparse_columns(U.module, dual_module(h.carrier), U.elements),
         dense.subalgebra_inclusion(U)),
    ])


@pytest.mark.parametrize("name", INSTANCES)
def test_hopf_and_crossed_maps_match_their_dense_column_builders(name, monkeypatch):
    ctx = Derived(instance(name))
    h, cp = ctx.hopf, ctx.diagram_crossed
    B = cp.product_algebra
    coin = coinvariants(cp.comodule)
    unit = map_to_vec(h.algebra.unit_map() @ h.coalgebra.counit)
    assert unit == dense.convolution_unit(h.coalgebra, h.algebra)
    assert list(map(type, unit)) == \
        list(map(type, dense.convolution_unit(h.coalgebra, h.algebra)))
    pairs = [
        (h.algebra.unit_map(), dense.unit_map(h.algebra)),
        (B.unit_map(), dense.unit_map(B)),
        (tensor_coalgebra(h.coalgebra, h.coalgebra).counit,
         dense.tensor_counit(h.coalgebra, h.coalgebra)),
        (LinearMap.from_sparse_columns(coin.module, B.carrier, coin.vectors),
         dense.coinvariant_inclusion(cp.comodule)),
    ]
    cl = integral_from_crossed(cp)
    pairs += [(cl.theta, dense.integral(cp)), (cl.theta_inv, dense.theta_inverse(cp)),
              (opposite_crossed(cp, cl).iso.map, dense.opposite_iso(cp, cl))]
    # S, S̄, σ⁻¹ and θ⁻¹, and the system x ↦ f⋆x each inversion solves,
    # against the flat-vector convolution
    systems = []
    solver = hopf.PreparedSolver
    monkeypatch.setattr(hopf, "PreparedSolver",
                        lambda ring, cols, m: systems.append(cols) or solver(ring, cols, m))
    ident = LinearMap.identity(h.carrier)
    hh = tensor_coalgebra(h.coalgebra, h.coalgebra)
    for got, source, target, f in [
            (compute_antipode(h.bialgebra), h.coalgebra, h.algebra, ident),
            (compute_twisted_antipode(h.bialgebra), h.coalgebra, h.algebra.opposite(), ident),
            (convolution_invert(hh, cp.action.algebra, cp.cocycle.sigma), hh,
             cp.action.algebra, cp.cocycle.sigma),
            (convolution_invert(h.coalgebra, B, cl.theta), h.coalgebra, B, cl.theta)]:
        conv = dense.ConvolutionAlgebra(source, target)
        flat = tuple(x for row in f.matrix for x in row)
        pairs += [(LinearMap.from_sparse_columns(conv.carrier, conv.carrier, systems.pop(0)),
                   dense.convolution_system(conv, flat)),
                  (got, conv.invert(flat))]
    assert not systems
    assert convolution_invert(hh, cp.action.algebra, cp.cocycle.sigma) == cp.cocycle.sigma_inv
    payload = ctx.entry.payload
    for c in [cl] + ([payload] if isinstance(payload, CleftData) else []):
        ext = crossed_from_integral(c)
        pairs += [
            *zip((ext.crossed.action.algebra.mult, ext.iso.map),
                 dense.extracted_product_and_iso(c, ext.crossed)),
            *zip((ext.crossed.action.action, ext.crossed.cocycle.sigma),
                 dense.extracted_action_and_sigma(c)),
            *zip(cleft_maps(c), dense.cleft_maps(c)),
        ]
    assert_pairs(pairs)


RAW = {ZZ: (3, -2, 0), QQ: (Fraction(4, 2), "1/3", 0), Zmod(3): (7, -1, 3),
       Zmod(6): (8, 5, -6)}


@pytest.mark.parametrize("ring", list(RAW), ids=repr)
def test_hand_written_columns_are_normalised_through_the_ring(ring):
    # the catalog's antipodes, conjugation and σ, and action_from_endomorphisms
    # on columns whose entries are not yet canonical
    for parts in (group_algebra_parts(ring, 3), sweedler_parts(ring)):
        h = hopf_from_parts(*parts)
        assert_pairs([(h.antipode, dense.endomorphism(h.carrier, parts[5])),
                      (h.twisted_antipode, dense.endomorphism(h.carrier, parts[6]))])
    conj = matrix_conjugation_action(ring)
    a = conj.algebra
    swap = [a.carrier.basis_vector((1 - i) * 2 + (1 - j)) for i in range(2) for j in range(2)]
    assert_pairs([(conj.action, dense.action_map(
        conj.hopf, a, [LinearMap.identity(a.carrier), dense.endomorphism(a.carrier, swap)]))])
    x, y, z = RAW[ring]
    images = [[(x, y, z, x), (z, x, y, y), (y, z, z, x), (x, x, y, z)]] * 2
    assert_pairs([(action_from_endomorphisms(conj.hopf, a, images).action,
                   dense.action_map(conj.hopf, a, images))])
    # R[C₂] acting trivially on R, as in the catalog's twisted C₂ entries
    action = catalog.trivial_action(catalog.group_algebra(ring, 2),
                                    catalog.ground_algebra(ring))
    for value in (x, y, z, [y]):
        assert_pairs([(catalog._sigma_single(action, 1, 1, value),
                       dense.sigma_single(action, 1, 1, value))])


@pytest.mark.parametrize("name", INSTANCES)
def test_run_suite_normalises_no_computed_map(name, monkeypatch):
    entry = instance(name)
    callers, accumulators = [], []
    init, scatter = LinearMap.__init__, linalg.hom_scatter

    def traced_init(self, *args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        init(self, *args)

    def traced_scatter(out, *args):
        accumulators.append(type(out))
        scatter(out, *args)

    monkeypatch.setattr(LinearMap, "__init__", traced_init)
    for module in [m for key, m in sys.modules.items() if key.startswith("hopfdual.")]:
        if getattr(module, "hom_scatter", None) is scatter:
            monkeypatch.setattr(module, "hom_scatter", traced_scatter)
    report = run_suite(entry, "all").to_dict(canonical=True)
    monkeypatch.undo()
    assert report == run_suite(instance(name), "all").to_dict(canonical=True)
    assert set(callers) <= {"hopfdual.catalog", "hopfdual.instancefile"}, set(callers)
    assert set(accumulators) <= {dict}
    # every suite that builds the duality maps scatters into Hom(H, ·)
    assert accumulators or "duality" not in applicable_suites(entry)
