"""Built-in, hand-auditable instances: group algebras, twisted products,
module-algebra smashes, and the rank-4 algebra with a non-involutive antipode.

Every entry validates under its type's full validator at load time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .actions import action_from_endomorphisms, trivial_action
from .crossed import (
    build_crossed_product,
    integral_from_crossed,
    trivial_cocycle,
    validate_cocycle,
)
from .errors import UnknownEntry
from .hopf import (
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    HopfData,
    compute_antipode,
    compute_twisted_antipode,
    matrix_algebra,
)
from .linalg import (
    FreeModule,
    LinearMap,
    free_module,
    sparse_column,
    sparse_vector,
    tensor_module,
    unit_module,
)
from .rings import QQ, ZZ, Ring, Zmod


# ---------------------------------------------------------------------------
# structure-constant helpers


def quadruple_map(dom: FreeModule, cod: FreeModule, quads, split: int,
                  co: bool = False) -> LinearMap:
    """The map with Σ c at column i·split + j, row k over the quadruples
    (i, j, k, c): e_i⊗e_j ↦ Σ c·e_k.  With ``co``, Σ c at column i, row
    j·split + k: e_i ↦ Σ c·e_j⊗e_k.  Repeated positions add up."""
    ring = dom.ring
    accs = [{} for _ in range(dom.rank)]
    for i, j, k, c in quads:
        col, row = (i, j * split + k) if co else (i * split + j, k)
        acc, v = accs[col], ring.of(c)
        acc[row] = ring.add(acc[row], v) if row in acc else v
    return LinearMap.from_sparse_columns(dom, cod, map(sparse_column, accs))


def algebra_from_quadruples(carrier: FreeModule, quads, unit) -> AlgebraData:
    """Multiplication from sparse (i, j, k, c) quadruples: e_i·e_j = Σ c·e_k."""
    mult = quadruple_map(tensor_module(carrier, carrier), carrier, quads, carrier.rank)
    return AlgebraData(carrier, mult, unit)


def coalgebra_from_quadruples(carrier: FreeModule, quads, counit_values) -> CoalgebraData:
    """Comultiplication from sparse (i, j, k, c): Δ(e_i) = Σ c·e_j⊗e_k."""
    comult = quadruple_map(carrier, tensor_module(carrier, carrier), quads, carrier.rank,
                           co=True)
    counit = LinearMap(carrier, unit_module(carrier.ring), [list(counit_values)])
    return CoalgebraData(carrier, comult, counit)


def hopf_from_parts(carrier, mult_quads, unit, comult_quads, counit_values,
                    antipode_cols=None, twisted_cols=None) -> HopfData:
    alg = algebra_from_quadruples(carrier, mult_quads, unit)
    coalg = coalgebra_from_quadruples(carrier, comult_quads, counit_values)
    bial = BialgebraData(alg, coalg)
    antipode = (compute_antipode(bial) if antipode_cols is None
                else _endomorphism(carrier, antipode_cols))
    twisted = (compute_twisted_antipode(bial) if twisted_cols is None
               else _endomorphism(carrier, twisted_cols))
    h = HopfData(bial, antipode, twisted)
    h.validate().require()
    return h


# ---------------------------------------------------------------------------
# concrete families


def group_algebra(ring: Ring, n: int) -> HopfData:
    return hopf_from_parts(*group_algebra_parts(ring, n))


def group_algebra_parts(ring: Ring, n: int):
    """R[C_n]: basis g^0..g^{n-1}, Δ(g^i)=g^i⊗g^i, S(g^i)=g^{-i}, as the
    arguments of ``hopf_from_parts``."""
    labels = ["e"] + [f"g{'^' + str(i) if i > 1 else ''}" for i in range(1, n)]
    carrier = free_module(ring, labels)
    mult = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    comult = [(i, i, i, 1) for i in range(n)]
    antipode = [carrier.basis_vector((-i) % n) for i in range(n)]
    return carrier, mult, carrier.basis_vector(0), comult, [1] * n, antipode, antipode


def sweedler_hopf(ring: Ring) -> HopfData:
    return hopf_from_parts(*sweedler_parts(ring))


def sweedler_parts(ring: Ring):
    """The rank-4 Hopf algebra on {1, g, x, gx}: g²=1, x²=0, xg=-gx,
    Δ(x)=x⊗1+g⊗x, S(x)=-gx, as the arguments of ``hopf_from_parts``.  Its
    antipode has order 4."""
    carrier = free_module(ring, ["1", "g", "x", "gx"])
    m1 = ring.neg(ring.one)
    mult = [
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
        (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, 1),
        (2, 0, 2, 1), (2, 1, 3, m1),
        (3, 0, 3, 1), (3, 1, 2, m1),
    ]
    comult = [
        (0, 0, 0, 1),
        (1, 1, 1, 1),
        (2, 2, 0, 1), (2, 1, 2, 1),
        (3, 3, 1, 1), (3, 0, 3, 1),
    ]
    counit = [1, 1, 0, 0]
    # S: 1↦1, g↦g, x↦-gx, gx↦x ; S̄ = S³: x↦gx, gx↦-x
    antipode = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, m1), (0, 0, 1, 0)]
    twisted = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, m1, 0)]
    return carrier, mult, (1, 0, 0, 0), comult, counit, antipode, twisted


def ground_algebra(ring: Ring) -> AlgebraData:
    """R itself as a rank-one algebra."""
    carrier = free_module(ring, ["1"])
    return algebra_from_quadruples(carrier, [(0, 0, 0, 1)], (1,))


def product_ring_algebra(ring: Ring, n: int) -> AlgebraData:
    """R × ... × R (n factors) with componentwise product."""
    carrier = free_module(ring, [f"u{i}" for i in range(n)])
    quads = [(i, i, i, 1) for i in range(n)]
    alg = algebra_from_quadruples(carrier, quads, [1] * n)
    alg.validate().require()
    return alg


def truncated_polynomial_algebra(ring: Ring) -> AlgebraData:
    """R[y]/(y²), basis {1, y}."""
    carrier = free_module(ring, ["1", "y"])
    quads = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    alg = algebra_from_quadruples(carrier, quads, (1, 0))
    alg.validate().require()
    return alg


def _endomorphism(carrier: FreeModule, cols) -> LinearMap:
    """The endomorphism of ``carrier`` with the given hand-written columns."""
    return LinearMap.from_sparse_columns(
        carrier, carrier, [sparse_vector(carrier.vector(c)) for c in cols])


# ---------------------------------------------------------------------------
# actions


def swap_action_data(ring: Ring):
    """R[C₂] acting on R×R by coordinate swap."""
    h = group_algebra(ring, 2)
    a = product_ring_algebra(ring, 2)
    swap = LinearMap(a.carrier, a.carrier, [[0, 1], [1, 0]])
    return action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), swap])


def sweedler_module_action(ring: Ring):
    """The rank-4 Hopf algebra acting on R[y]/(y²): g·y = -y, x·y = 1."""
    h = sweedler_hopf(ring)
    a = truncated_polynomial_algebra(ring)
    m1 = ring.neg(ring.one)
    ident = LinearMap.identity(a.carrier)
    g_act = LinearMap(a.carrier, a.carrier, [[1, 0], [0, m1]])
    x_act = LinearMap(a.carrier, a.carrier, [[0, 1], [0, 0]])
    gx_act = g_act @ x_act
    return action_from_endomorphisms(h, a, [ident, g_act, x_act, gx_act])


def matrix_conjugation_action(ring: Ring):
    """R[C₂] acting on M₂(R) by conjugation with the coordinate swap matrix."""
    h = group_algebra(ring, 2)
    a = matrix_algebra(ring, 2)
    # P·e_ij·P with P the permutation matrix of (0 1): e_ij ↦ e_{1-i,1-j}
    conj = _endomorphism(a.carrier, [a.carrier.basis_vector((1 - i) * 2 + (1 - j))
                                     for i in range(2) for j in range(2)])
    return action_from_endomorphisms(h, a, [LinearMap.identity(a.carrier), conj])


# ---------------------------------------------------------------------------
# catalog entries


@dataclass
class CatalogEntry:
    """A named, validated instance with its expected outcomes.

    ``u_span``/``v_span`` optionally restrict the dual subalgebra U and the
    RL-witness space V; when absent, U defaults to all of H* and V to the
    coaction preimage of H⊗U.
    """

    name: str
    description: str
    kind: str              # "hopf" | "crossed" | "cleft"
    ring: Ring
    expected: dict = field(default_factory=dict)
    _build: Optional[object] = None
    _payload: Optional[object] = None
    u_span: Optional[list] = None
    v_span: Optional[list] = None

    @property
    def payload(self):
        if self._payload is None:
            self._payload = self._build()
        return self._payload

    def hopf_data(self) -> HopfData:
        """The underlying Hopf algebra of any payload kind."""
        p = self.payload
        if self.kind == "hopf":
            return p
        if self.kind == "crossed":
            return p.action.hopf
        return p.comodule_algebra.hopf


def _sigma_single(action, i, j, value):
    """σ normal except σ(h_i⊗h_j) = value (a vector or scalar in A)."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    eps = b.coalgebra.counit_scalar
    cols = []
    for p in range(b.rank):
        for q in range(b.rank):
            if (p, q) == (i, j):
                if isinstance(value, (list, tuple)):
                    cols.append(A.carrier.vector(value))
                else:
                    cols.append(A.carrier.vector(
                        [value] + [0] * (A.rank - 1)))
            else:
                c = ring.mul(eps(b.carrier.basis_vector(p)),
                             eps(b.carrier.basis_vector(q)))
                cols.append(tuple(ring.mul(c, x) for x in A.unit))
    return LinearMap.from_sparse_columns(tensor_module(b.carrier, b.carrier), A.carrier,
                                         map(sparse_vector, cols))


def _crossed(action, sigma=None):
    if sigma is None:
        return build_crossed_product(action, trivial_cocycle(action))
    return build_crossed_product(action, validate_cocycle(action, sigma))


def _build_gauss():
    action = trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ))
    return _crossed(action, _sigma_single(action, 1, 1, -1))


def _build_zmod6():
    ring = Zmod(6)
    action = trivial_action(group_algebra(ring, 2), ground_algebra(ring))
    return _crossed(action, _sigma_single(action, 1, 1, 5))


def _build_triv_c2():
    return _crossed(trivial_action(group_algebra(ZZ, 2), ground_algebra(ZZ)))


def _build_triv_c3():
    return _crossed(trivial_action(group_algebra(ZZ, 3), ground_algebra(ZZ)))


def _build_gauss_cleft():
    cleft = integral_from_crossed(_build_gauss())
    cleft.validate().require()
    return cleft


_CATALOG = None


def _entries():
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    entries = [
        CatalogEntry(
            "Z_C2", "group algebra of the order-2 group over Z", "hopf", ZZ,
            {"antipode": "S(g) = g (group inverse)",
             "coactions": "both coactions are trivial (cocommutative)"},
            lambda: group_algebra(ZZ, 2)),
        CatalogEntry(
            "Z_C3", "group algebra of the order-3 group over Z", "hopf", ZZ,
            {"antipode": "S(g) = g^2"},
            lambda: group_algebra(ZZ, 3)),
        CatalogEntry(
            "Z_C4", "group algebra of the order-4 group over Z", "hopf", ZZ,
            {"antipode": "S(g) = g^3"},
            lambda: group_algebra(ZZ, 4)),
        CatalogEntry(
            "Q_C3", "group algebra of the order-3 group over Q", "hopf", QQ,
            {"antipode": "S(g) = g^2"},
            lambda: group_algebra(QQ, 3)),
        CatalogEntry(
            "sweedler4_Q", "rank-4 algebra with order-4 antipode over Q",
            "hopf", QQ,
            {"antipode": "S(x) = -gx, S² ≠ id, S⁴ = id",
             "twisted_antipode": "S̄ = S³ = S⁻¹",
             "self_dual": "isomorphic to its dual"},
            lambda: sweedler_hopf(QQ)),
        CatalogEntry(
            "sweedler4_Z3", "rank-4 algebra with order-4 antipode over Z/3",
            "hopf", Zmod(3),
            {"antipode": "S(x) = -gx = 2gx"},
            lambda: sweedler_hopf(Zmod(3))),
        CatalogEntry(
            "sweedler4_Z", "rank-4 algebra over Z (validator coverage only)",
            "hopf", ZZ,
            {"note": "valid Hopf data; excluded from isomorphism suites",
             "only_suites": ["hopf"]},
            lambda: sweedler_hopf(ZZ)),
        CatalogEntry(
            "triv_C2", "trivial action and cocycle: Z ⊗ Z[C2]", "crossed", ZZ,
            {"product": "componentwise tensor algebra",
             "matrix_form": "isomorphic to 2x2 integer matrices"},
            _build_triv_c2),
        CatalogEntry(
            "triv_C3", "trivial action and cocycle: Z ⊗ Z[C3]", "crossed", ZZ,
            {"matrix_form": "isomorphic to 3x3 integer matrices"},
            _build_triv_c3),
        CatalogEntry(
            "gauss", "twisted product with σ(g⊗g) = -1: the Gaussian integers",
            "crossed", ZZ,
            {"square": "(1#g)² = -(1#e)", "sigma_inverse": "σ⁻¹(g⊗g) = -1",
             "matrix_form": "isomorphic to 2x2 integer matrices"},
            _build_gauss),
        CatalogEntry(
            "Zmod6_C2", "twisted product over Z/6 with σ(g⊗g) = 5", "crossed",
            Zmod(6),
            {"square": "(1#g)² = 5·(1#e)",
             "note": "exercises composite-modulus solving"},
            _build_zmod6),
        CatalogEntry(
            "swap_smash", "Z[C2] acting on Z×Z by coordinate swap, trivial σ",
            "crossed", ZZ,
            {"shape": "noncommutative rank-4 algebra"},
            lambda: _crossed(swap_action_data(ZZ))),
        CatalogEntry(
            "m2_conj_smash", "Z[C2] acting on M2(Z) by conjugation, trivial σ",
            "crossed", ZZ,
            {"shape": "noncommutative coefficients"},
            lambda: _crossed(matrix_conjugation_action(ZZ))),
        CatalogEntry(
            "sweedler4_smash_Q", "rank-4 Hopf algebra acting on Q[y]/(y²)",
            "crossed", QQ,
            {"shape": "rank-8 smash product, non-cocommutative H"},
            lambda: _crossed(sweedler_module_action(QQ))),
        CatalogEntry(
            "sweedler4_smash_Z3", "rank-4 Hopf algebra acting on (Z/3)[y]/(y²)",
            "crossed", Zmod(3),
            {"shape": "rank-8 smash product over a modular ring"},
            lambda: _crossed(sweedler_module_action(Zmod(3)))),
        CatalogEntry(
            "gauss_cleft", "the Gaussian twisted product as a cleft extension",
            "cleft", ZZ,
            {"integral": "θ(h) = 1#h with θ⁻¹(g) = -(1#g)"},
            _build_gauss_cleft),
    ]
    _CATALOG = entries
    return entries


def list_entries():
    """Deterministic catalog order: summaries of every entry."""
    return [(e.name, e.kind, e.description) for e in _entries()]


def get(name: str) -> CatalogEntry:
    """The fully constructed, validated entry; UnknownEntry otherwise."""
    for e in _entries():
        if e.name == name:
            e.payload  # force construction (validators run in the builders)
            return e
    raise UnknownEntry(f"no catalog entry named {name!r}")
