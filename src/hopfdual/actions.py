"""Regular actions of H on its dual, weak actions, comodule algebras and
coinvariants.

The regular actions of H on H*, (hf)(k) = f(kh) and (fh)(k) = f(hk), are
read with ``linalg.bilinear`` off :func:`regular_action_table`, the
multiplication table transposed per side; U's closure data and the
coaction checks read them there.  The hit action
f⇀k = Σ k₁f(k₂) of H* on H is :func:`hit`, which λ reads
(``smash.hit_action_of_dual`` writes its table straight from Δ); the other
hit action k↼f = Σ f(k₁)k₂, which the RL check reads, is
``duality.rho_endo``.  Both take and return canonical sparse vectors, as do
the coinvariants' vectors and coordinates: the coordinates are the
``linalg.split_coordinates`` function that certified the span a direct
summand, kept with it, so a membership question factors nothing.

The comodule-algebra axioms are checked per basis element b of B from the
legs c·b_x⊗h_y of ϱ(b), and measuring per (h, a, b) from the legs of Δ(h)
and the sparse action table, without composing Kronecker products.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DimensionMismatch, RingMismatch, ValidationError
from .hopf import AlgebraData, HopfData
from .linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    bilinear,
    certified,
    column_witness,
    combine_columns,
    dual_module,
    kron,
    kron_column,
    kron_vec,
    legs,
    product_label,
    sparse_column,
    sparse_vector,
    split_coordinates,
    tensor_module,
    unit_vectors,
)
from .reporting import ValidationReport


def regular_action_table(h: HopfData, left: bool) -> LinearMap:
    """The regular action of H on H* as a map H*⊗H → H*, for
    :func:`linalg.bilinear`: (hf)(k) = f(kh) when ``left``, else
    (fh)(k) = f(hk).  Column δ_x⊗h_j holds c at l for each term c·e_x of
    the basis product e_l·e_j (right: e_j·e_l): the multiplication table
    transposed, per side."""
    r = h.rank
    cols = [[] for _ in range(r * r)]
    for flat, col in enumerate(h.algebra.mult.sparse_columns()):
        l, j = divmod(flat, r) if left else reversed(divmod(flat, r))
        for x, c in col:
            cols[x * r + j].append((l, c))
    dual = dual_module(h.carrier)
    return LinearMap.from_sparse_columns(tensor_module(dual, h.carrier), dual, cols)


def hit(h: HopfData, f, t: int):
    """f⇀h_t = Σ k₁f(k₂) over Δ(h_t), for a functional f on H; f and the
    result are canonical sparse vectors."""
    ring, f = h.ring, dict(f)
    acc = {}
    for c, (k1, k2) in h.coalgebra.sweedler_basis(t, 2):
        if k2 in f:
            s = ring.mul(c, f[k2])
            acc[k1] = ring.add(acc[k1], s) if k1 in acc else s
    return sparse_column(acc)


class WeakActionData:
    """A weak left H-action on A: h·(ab) = Σ(h₁a)(h₂b), h·1 = ε(h)1, 1·a = a.

    Not required to be associative as a module action (that is the twisted
    module condition, which belongs to the cocycle data).
    """

    def __init__(self, hopf: HopfData, algebra: AlgebraData, action: LinearMap):
        if action.domain.rank != hopf.rank * algebra.rank or \
                action.codomain.rank != algebra.rank:
            raise DimensionMismatch("action must map H⊗A to A")
        if hopf.ring != algebra.ring:
            raise RingMismatch("action structures over different rings")
        self.hopf = hopf
        self.algebra = algebra
        self.action = action

    @property
    def bialgebra(self):
        return self.hopf.bialgebra

    @property
    def ring(self):
        return self.algebra.ring


def trivial_action(hopf: HopfData, algebra: AlgebraData) -> WeakActionData:
    """h·a = ε(h)a."""
    return WeakActionData(hopf, algebra, kron(hopf.coalgebra.counit,
                                              LinearMap.identity(algebra.carrier)))


def action_from_endomorphisms(hopf: HopfData, algebra: AlgebraData, images) -> WeakActionData:
    """Action given per H-basis element as an endo-map column list of A."""
    cols = []
    for i in range(hopf.rank):
        endo = images[i]
        for j in range(algebra.rank):
            cols.append(sparse_vector(algebra.carrier.vector(
                endo.column(j) if isinstance(endo, LinearMap) else endo[j])))
    action = LinearMap.from_sparse_columns(tensor_module(hopf.carrier, algebra.carrier),
                                           algebra.carrier, cols)
    return WeakActionData(hopf, algebra, action)


def validate_weak_action(w: WeakActionData, subject: str = "weak action") -> ValidationReport:
    rep = ValidationReport(subject)
    b = w.bialgebra
    A = w.algebra
    ring = w.ring
    rH, rA = b.rank, A.rank
    # 1_H acts as the identity, on the sparse columns of the action
    act = w.action.sparse_columns()
    one_h = sparse_vector(b.algebra.unit)
    witness = column_witness(
        (combine_columns(ring, ((act[i * rA + j], c) for i, c in one_h)) for j in range(rA)),
        unit_vectors(ring, rA), A.carrier.label)
    rep.add("action.unit_acts", "1_H ⇀ a = a", witness is None, witness)
    # h·1_A = ε(h)·1_A
    one_a = sparse_vector(A.unit)
    eps = b.coalgebra.counit_values()
    witness = next((b.carrier.label(i) for i in range(rH)
                    if combine_columns(ring, ((act[i * rA + s], c) for s, c in one_a))
                    != combine_columns(ring, [(one_a, eps[i])])), None)
    rep.add("action.unit_target", "h ⇀ 1_A = ε(h)1_A", witness is None, witness)
    # measuring: h(ab) = Σ (h₁a)(h₂b) per (h, a, b), over the legs of Δ(h)
    amul, mul = A.mult.sparse_columns(), ring.mul
    terms = [legs(col, rH) for col in b.coalgebra.comult.sparse_columns()]
    triples = [(h, a, a2) for h in range(rH) for a in range(rA) for a2 in range(rA)]
    witness = column_witness(
        (combine_columns(ring, [(act[h * rA + t], c) for t, c in amul[a * rA + a2]])
         for h, a, a2 in triples),
        (combine_columns(ring, [(amul[u * rA + v], mul(d, mul(x, y)))
                                for p, q, d in terms[h] for u, x in act[p * rA + a]
                                for v, y in act[q * rA + a2]])
         for h, a, a2 in triples),
        product_label(b.carrier, A.carrier, A.carrier))
    rep.add("action.measuring", "h ⇀ (ab) = Σ(h₁⇀a)(h₂⇀b)", witness is None, witness)
    return rep


class ComoduleAlgebraData:
    """A right H-comodule algebra: ϱ: B → B⊗H coassociative, counital,
    multiplicative, with ϱ(1) = 1⊗1."""

    def __init__(self, hopf: HopfData, algebra: AlgebraData, coaction: LinearMap):
        if coaction.domain.rank != algebra.rank or \
                coaction.codomain.rank != algebra.rank * hopf.rank:
            raise DimensionMismatch("coaction must map B to B⊗H")
        if hopf.ring != algebra.ring:
            raise RingMismatch("comodule structures over different rings")
        self.hopf = hopf
        self.algebra = algebra
        self.coaction = coaction

    @property
    def bialgebra(self):
        return self.hopf.bialgebra

    @property
    def ring(self):
        return self.algebra.ring

    def validate(self, subject: str = "comodule algebra") -> ValidationReport:
        """Per basis element of B, from the legs c·b_x⊗h_y of ϱ's columns."""
        rep = ValidationReport(subject)
        b = self.bialgebra
        B = self.algebra
        ring, mul = self.ring, self.ring.mul
        rB, rH = B.rank, b.rank
        R = self.coaction.sparse_columns()
        D, E = b.coalgebra.comult.sparse_columns(), b.coalgebra.counit.sparse_columns()
        bmul, hmul = B.mult.sparse_columns(), b.algebra.mult.sparse_columns()
        eB, eH = unit_vectors(ring, rB), unit_vectors(ring, rH)
        terms = [legs(col, rH) for col in R]
        witness = column_witness(
            (combine_columns(ring, [(kron_column(R[x], eH[y], rH, mul), c)
                                    for x, y, c in t]) for t in terms),
            (combine_columns(ring, [(kron_column(eB[x], D[y], rH * rH, mul), c)
                                    for x, y, c in t]) for t in terms), B.carrier.label)
        rep.add("comodule.coassoc", "(ϱ⊗id)∘ϱ = (id⊗Δ)∘ϱ", witness is None, witness)
        witness = column_witness(
            (combine_columns(ring, [(kron_column(eB[x], E[y], 1, mul), c) for x, y, c in t])
             for t in terms), eB, B.carrier.label)
        rep.add("comodule.counit", "(id⊗ε)∘ϱ = id", witness is None, witness)
        # ϱ(b_ib_j) against Σ ac·b_xb_x'⊗h_yh_y' over the legs of ϱ(b_i), ϱ(b_j)
        # where b_xb_x' and h_yh_y' ≠ 0
        witness = column_witness(
            (combine_columns(ring, [(R[t], c) for t, c in col]) for col in bmul),
            (combine_columns(ring, [(kron_column(u, v, rH, mul), mul(a, c))
                                    for x, y, a in terms[i] for x2, y2, c in terms[j]
                                    if (u := bmul[x * rB + x2]) and (v := hmul[y * rH + y2])])
             for i in range(rB) for j in range(rB)),
            product_label(B.carrier, B.carrier))
        rep.add("comodule.multiplicative", "ϱ is an algebra morphism",
                witness is None, witness)
        ok = self.coaction.apply(B.unit) == kron_vec(self.ring, B.unit,
                                                     b.algebra.unit)
        rep.add("comodule.unit", "ϱ(1) = 1⊗1", ok, None if ok else "1")
        return rep


def regular_comodule(h: HopfData) -> ComoduleAlgebraData:
    """H as a right H-comodule algebra over itself via Δ."""
    return ComoduleAlgebraData(h, h.algebra, h.coalgebra.comult)


@dataclass(frozen=True)
class Coinvariants:
    """A basis of B^{coH} = {b | ϱ(b) = b⊗1} that spans a direct summand."""

    module: FreeModule
    vectors: tuple  # canonical sparse vectors of B
    # v ↦ the coefficients of v in ``vectors``, or None when v is not
    # coinvariant, both canonical sparse vectors (``split_coordinates``)
    coordinates: Callable

    @property
    def rank(self):
        return len(self.vectors)


def coinvariants(c: ComoduleAlgebraData) -> Coinvariants:
    """Kernel of ϱ - (id ⊗ 1_H), canonicalized; checked to be a direct summand."""
    return certified("coinvariants", (c.ring, c.coaction.sparse_columns(),
                                      c.bialgebra.algebra.unit), lambda: _coinvariants(c))


def _coinvariants(c: ComoduleAlgebraData) -> Coinvariants:
    b = c.bialgebra
    B = c.algebra
    ring = c.ring
    diff = c.coaction - kron(LinearMap.identity(B.carrier), b.algebra.unit_map())
    vectors = PreparedSolver(ring, diff.sparse_columns(), diff.codomain.rank).kernel()
    coordinates = split_coordinates(ring, vectors, B.rank)
    if coordinates is None:
        raise ValidationError("coinvariants do not span a direct summand")
    return Coinvariants(FreeModule(ring, len(vectors), "c{}".format), vectors, coordinates)


def coinvariants_form_subalgebra(c: ComoduleAlgebraData, coin: Coinvariants) -> bool:
    """Closure of the coinvariant span under unit and products."""
    express = coin.coordinates
    if express(sparse_vector(c.algebra.unit)) is None:
        return False
    prod = bilinear(c.ring, c.algebra.mult, c.algebra.rank)
    return all(express(prod(u, v)) is not None for u in coin.vectors for v in coin.vectors)
