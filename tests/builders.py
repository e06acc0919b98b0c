"""Test-only builders: fixtures and negative controls that no CLI path needs.

``FunctionalSpan`` is a bare spanning list of functionals on H, for the raw
map builders and for an invalid U; ``side_objects`` builds the corners of a
duality diagram that read only U, as ``suites.Derived`` does, ``diagram``
hands them to ``build_diagram``, ``lambda_coordinates`` factors λ for the
RL-condition and the duality isomorphism, and ``full_dual_lambda`` is U = H*
with its λ, as ``epsilon_maps`` takes them; ``idempotent_monoid_bialgebra``
is a bialgebra with no antipode; ``entries_equal`` compares two entries
through their canonical instance documents; ``map_from_columns`` is the
tests' one normalising constructor from dense columns, and ``map_to_vec``
and ``vec_to_map`` flatten a map to its dense row-major Hom coordinate
vector and back; ``unvalidated_hopf`` builds Hopf data from
``hopf_from_parts`` arguments without certifying it.
``cyclic_document`` is the instance document of R[C_n] over Z/p.
"""
from hopfdual.catalog import (
    CatalogEntry,
    algebra_from_quadruples,
    coalgebra_from_quadruples,
)
from hopfdual.actions import regular_comodule
from hopfdual.duality import DiagramSide, build_diagram, lambda_map
from hopfdual.hopf import BialgebraData, HopfData
from hopfdual.instancefile import export_entry
from hopfdual.linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    free_module,
    sparse_vector,
)
from hopfdual.rings import Ring
from hopfdual.smash import ModuleSide, SubalgebraU, op_smash, right_smash


class FunctionalSpan:
    """A bare spanning list of functionals on H, with none of the closure
    guarantees of :class:`SubalgebraU`.  Enough for the raw map builders
    (α, χ, λ, ρ) and for negative controls that need an invalid U.  The
    functionals are given dense and held, as U's are, as canonical sparse
    vectors."""

    def __init__(self, hopf: HopfData, elements, side: ModuleSide = ModuleSide.RIGHT):
        ring = hopf.ring
        self.hopf = hopf
        self.side = side
        self.elements = tuple(sparse_vector(map(ring.of, v)) for v in elements)
        self.module = free_module(ring, [f"v{i}" for i in range(len(self.elements))])

    @property
    def rank(self):
        return len(self.elements)


def side_objects(cp, U):
    """B#U of ``cp.comodule``, H#U of the regular comodule and λ for a right
    U; B#^opU, H#^opU and λ̄ for a left one."""
    h = cp.action.hopf
    smash = right_smash if U.side is ModuleSide.RIGHT else op_smash
    return smash(cp.comodule, U), smash(regular_comodule(h), U), lambda_map(h, U)


def diagram(cp, U, side):
    """``build_diagram`` of ``cp`` for U on ``side``."""
    return build_diagram(cp, U, side, *side_objects(cp, U))


def lambda_coordinates(hopf: HopfData, U):
    """v ↦ v's coordinates in λ's columns (λ̄ for a left U), or None: the
    ``solve`` of one ``PreparedSolver`` of λ."""
    lam = lambda_map(hopf, U)
    return PreparedSolver(hopf.ring, lam.sparse_columns(), lam.codomain.rank).solve


def full_dual_lambda(hopf: HopfData, side):
    """U = H* on ``side`` (op: a left H-module) and its λ (op: λ̄)."""
    U = SubalgebraU.full_dual(hopf, ModuleSide.RIGHT if side is DiagramSide.RIGHT
                              else ModuleSide.LEFT)
    return U, lambda_map(hopf, U)


def idempotent_monoid_bialgebra(ring: Ring) -> BialgebraData:
    """R[{1, t}] with t² = t, Δ(t)=t⊗t: a bialgebra that is not Hopf."""
    carrier = free_module(ring, ["1", "t"])
    alg = algebra_from_quadruples(
        carrier,
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
        carrier.basis_vector(0),
    )
    coalg = coalgebra_from_quadruples(carrier, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1])
    b = BialgebraData(alg, coalg)
    b.validate().require()
    return b


def map_from_columns(domain: FreeModule, codomain: FreeModule, cols) -> LinearMap:
    """The map whose j-th column is the dense ``cols[j]``, each entry
    normalised through the ring (``FreeModule.vector``), as fixtures and
    oracles write their maps."""
    return LinearMap.from_sparse_columns(
        domain, codomain, [sparse_vector(codomain.vector(c)) for c in cols])


def map_to_vec(f: LinearMap) -> tuple:
    """The dense Hom(dom, cod) coordinate vector of ``f``, flattened
    row-major: entry (i, j) sits at i·rank(dom) + j."""
    return tuple(x for row in f.matrix for x in row)


def vec_to_map(vec, dom: FreeModule, cod: FreeModule) -> LinearMap:
    """The map whose row-major Hom(dom, cod) coordinate vector is the dense
    ``vec``, the inverse of :func:`map_to_vec`."""
    r = dom.rank
    return LinearMap(dom, cod, [vec[i * r:(i + 1) * r] for i in range(cod.rank)])


def entries_equal(a: CatalogEntry, b: CatalogEntry) -> bool:
    """Equality through canonical serialization."""
    return export_entry(a) == export_entry(b)


def unvalidated_hopf(carrier, mult_quads, unit, comult_quads, counit_values,
                     antipode_cols, twisted_cols) -> HopfData:
    """Hopf data from quadruples and antipode columns, as
    ``catalog.hopf_from_parts`` builds it, but not validated: for tests that
    certify or recompute the parts themselves."""
    def endo(cols):
        return map_from_columns(carrier, carrier, cols)
    bial = BialgebraData(algebra_from_quadruples(carrier, mult_quads, unit),
                         coalgebra_from_quadruples(carrier, comult_quads, counit_values))
    return HopfData(bial, endo(antipode_cols), endo(twisted_cols))


def cyclic_document(n: int, p: int) -> dict:
    """R[C_n] over Z/p as a kind-'hopf' instance document with no antipode:
    g^i g^j = g^(i+j), Δ(g^i) = g^i⊗g^i, ε = 1."""
    return {
        "name": f"Zmod{p}_C{n}", "description": f"the order-{n} group algebra over Z/{p}",
        "kind": "hopf", "suite": "all", "ring": {"kind": "integers_mod", "n": p},
        "modules": {"H": [f"g{i}" for i in range(n)]},
        "hopf": {"carrier": "H",
                 "mult": [[i, j, (i + j) % n, "1"] for i in range(n) for j in range(n)],
                 "unit": ["1"] + ["0"] * (n - 1),
                 "comult": [[i, i, i, "1"] for i in range(n)],
                 "counit": ["1"] * n},
    }
