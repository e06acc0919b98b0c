"""Hit actions from measuring pairings, regular actions on the dual, weak
actions, comodule algebras and coinvariants.

The hit actions of a measuring pairing (A, C) are a⇀c = Σ c₁⟨a,c₂⟩ and
c↼a = Σ ⟨a,c₁⟩c₂; the regular actions of H on H* are (hf)(k) = f(kh) and
(fh)(k) = f(hk).
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import ground_algebra
from .errors import DimensionMismatch, RingMismatch, ValidationError
from .hopf import (
    AlgebraData,
    CoalgebraData,
    ConvolutionAlgebra,
    HopfLike,
    bialgebra_of,
    expand_sparse,
    tensor_algebra,
)
from .linalg import (
    FreeModule,
    LinearMap,
    column_witness,
    dual_module,
    hom_module,
    kron,
    kron_vec,
    product_labels,
    solve_linear,
    split_coefficient_map,
    submodule_membership,
    tensor_module,
    unit_module,
    vec_scale,
)
from .reporting import ValidationReport


class PairingData:
    """A measuring pairing: an algebra A, a coalgebra C, and ⟨-,-⟩: A⊗C → R
    whose induced map β: A → C* is an algebra morphism."""

    def __init__(self, algebra_side: AlgebraData, coalgebra_side: CoalgebraData,
                 eval_map: LinearMap):
        if algebra_side.ring != coalgebra_side.ring:
            raise RingMismatch("pairing sides over different rings")
        expected = algebra_side.rank * coalgebra_side.rank
        if eval_map.domain.rank != expected or eval_map.codomain.rank != 1:
            raise DimensionMismatch("evaluation must map A⊗C to the ground ring")
        self.algebra_side = algebra_side
        self.coalgebra_side = coalgebra_side
        self.eval_map = eval_map

    @property
    def ring(self):
        return self.algebra_side.ring

    def pair(self, a_vec, c_vec):
        return self.eval_map.apply(kron_vec(self.ring, a_vec, c_vec))[0]

    def pair_basis(self, i: int, j: int):
        return self.eval_map.matrix[0][i * self.coalgebra_side.rank + j]

    def hit_left(self, a_vec, c_vec):
        """a⇀c = Σ c₁⟨a,c₂⟩."""
        ring = self.ring
        C = self.coalgebra_side
        out = [ring.zero] * C.rank
        for coeff, (c1, c2) in C.sweedler(c_vec, 2):
            s = ring.mul(coeff, self.pair(a_vec, C.carrier.basis_vector(c2)))
            if (s):
                out[c1] = ring.add(out[c1], s)
        return tuple(out)

    def hit_right(self, c_vec, a_vec):
        """c↼a = Σ ⟨a,c₁⟩c₂."""
        ring = self.ring
        C = self.coalgebra_side
        out = [ring.zero] * C.rank
        for coeff, (c1, c2) in C.sweedler(c_vec, 2):
            s = ring.mul(coeff, self.pair(a_vec, C.carrier.basis_vector(c1)))
            if (s):
                out[c2] = ring.add(out[c2], s)
        return tuple(out)

    def beta_map(self) -> LinearMap:
        """β: A → C*, a ↦ ⟨a,-⟩, into the hom flattening of Hom(C, R)."""
        A, C = self.algebra_side, self.coalgebra_side
        cols = [tuple(self.pair_basis(i, j) for j in range(C.rank))
                for i in range(A.rank)]
        return LinearMap.from_columns(A.carrier, hom_module(C.carrier,
                                                            unit_module(self.ring)), cols)

    def is_nondegenerate(self) -> bool:
        """Whether β is injective.  Recorded for information only: at finite
        free rank the needed injectivity hypotheses hold automatically, so
        non-degeneracy is never enforced."""
        res = solve_linear(self.beta_map(),
                           (self.ring.zero,) * self.coalgebra_side.rank)
        return not res.kernel_basis

    def validate(self, subject: str = "pairing") -> ValidationReport:
        rep = ValidationReport(subject)
        conv = ConvolutionAlgebra(self.coalgebra_side, ground_algebra(self.ring))
        beta = self.beta_map()
        dual_alg = conv.algebra()
        ok_unit = beta.apply(self.algebra_side.unit) == conv.unit_vec
        rep.add("pairing.beta_unit", "β(1) is the convolution unit", ok_unit)
        witness = None
        r = self.algebra_side.rank
        for i in range(r):
            for j in range(r):
                prod = expand_sparse(self.algebra_side.basis_product(i, j), r, self.ring)
                lhs = beta.apply(prod)
                rhs = dual_alg.product(beta.column(i), beta.column(j))
                if lhs != rhs:
                    witness = (f"({self.algebra_side.carrier.labels[i]},"
                               f"{self.algebra_side.carrier.labels[j]})")
                    break
            if witness:
                break
        rep.add("pairing.beta_mult", "β is multiplicative into (C*,⋆)",
                witness is None, witness)
        # informational: recorded, never enforced (automatic at finite rank)
        rep.add("pairing.nondegeneracy_recorded",
                "β injectivity recorded (not a hypothesis at finite free rank)",
                True, f"injective: {self.is_nondegenerate()}")
        return rep


def dual_pairing(h: HopfLike) -> PairingData:
    """The canonical measuring pairing (H*, H) with ⟨f, k⟩ = f(k)."""
    b = bialgebra_of(h)
    ring = b.ring
    r = b.rank
    dual_alg = ConvolutionAlgebra(b.coalgebra, ground_algebra(ring)).algebra()
    rows = [[ring.one if i == j else ring.zero
             for i in range(r) for j in range(r)]]
    ev = LinearMap(tensor_module(dual_alg.carrier, b.carrier), unit_module(ring), rows)
    return PairingData(dual_alg, b.coalgebra, ev)


def regular_actions(h: HopfLike):
    """The H-bimodule structure of H*: left (hf)(k)=f(kh), right (fh)(k)=f(hk).

    Returns (left: H⊗H* → H*, right: H*⊗H → H*).
    """
    b = bialgebra_of(h)
    r = b.rank
    mult = b.algebra.mult.matrix
    Hd = dual_module(b.carrier)
    left_cols = []
    for i in range(r):
        for j in range(r):
            left_cols.append(tuple(mult[j][l * r + i] for l in range(r)))
    right_cols = []
    for j in range(r):
        for i in range(r):
            right_cols.append(tuple(mult[j][i * r + l] for l in range(r)))
    left = LinearMap.from_columns(tensor_module(b.carrier, Hd), Hd, left_cols)
    right = LinearMap.from_columns(tensor_module(Hd, b.carrier), Hd, right_cols)
    return left, right


def regular_act_left(h: HopfLike, h_vec, f_vec):
    """(hf)(k) = f(kh) on explicit vectors."""
    b = bialgebra_of(h)
    ring = b.ring
    r = b.rank
    mult = b.algebra.mult.matrix
    out = [ring.zero] * r
    for l in range(r):
        total = ring.zero
        for i, hc in enumerate(h_vec):
            if not (hc):
                continue
            for j, fc in enumerate(f_vec):
                if not (fc):
                    continue
                c = mult[j][l * r + i]
                if (c):
                    total = ring.add(total, ring.mul(ring.mul(hc, fc), c))
        out[l] = total
    return tuple(out)


def regular_act_right(h: HopfLike, f_vec, h_vec):
    """(fh)(k) = f(hk) on explicit vectors."""
    b = bialgebra_of(h)
    ring = b.ring
    r = b.rank
    mult = b.algebra.mult.matrix
    out = [ring.zero] * r
    for l in range(r):
        total = ring.zero
        for i, hc in enumerate(h_vec):
            if not (hc):
                continue
            for j, fc in enumerate(f_vec):
                if not (fc):
                    continue
                c = mult[j][i * r + l]
                if (c):
                    total = ring.add(total, ring.mul(ring.mul(hc, fc), c))
        out[l] = total
    return tuple(out)


class WeakActionData:
    """A weak left H-action on A: h·(ab) = Σ(h₁a)(h₂b), h·1 = ε(h)1, 1·a = a.

    Not required to be associative as a module action (that is the twisted
    module condition, which belongs to the cocycle data).
    """

    def __init__(self, hopf: HopfLike, algebra: AlgebraData, action: LinearMap):
        b = bialgebra_of(hopf)
        if action.domain.rank != b.rank * algebra.rank or \
                action.codomain.rank != algebra.rank:
            raise DimensionMismatch("action must map H⊗A to A")
        if b.ring != algebra.ring:
            raise RingMismatch("action structures over different rings")
        self.hopf = hopf
        self.algebra = algebra
        self.action = action

    @property
    def bialgebra(self):
        return bialgebra_of(self.hopf)

    @property
    def ring(self):
        return self.algebra.ring

    def act(self, h_vec, a_vec):
        return self.action.apply(kron_vec(self.ring, h_vec, a_vec))

    def act_basis(self, i: int, a_vec):
        ring = self.ring
        rA = self.algebra.rank
        cols = self.action.sparse_columns()
        out = [ring.zero] * rA
        base = i * rA
        for j, a in enumerate(a_vec):
            if not (a):
                continue
            for t, c in cols[base + j]:
                out[t] = ring.add(out[t], ring.mul(c, a))
        return tuple(out)


def trivial_action(hopf: HopfLike, algebra: AlgebraData) -> WeakActionData:
    """h·a = ε(h)a."""
    b = bialgebra_of(hopf)
    ida = LinearMap.identity(algebra.carrier)
    action = kron(b.coalgebra.counit, ida)
    action = LinearMap(tensor_module(b.carrier, algebra.carrier), algebra.carrier,
                       action.matrix)
    return WeakActionData(hopf, algebra, action)


def action_from_endomorphisms(hopf: HopfLike, algebra: AlgebraData, images) -> WeakActionData:
    """Action given per H-basis element as an endo-map column list of A."""
    b = bialgebra_of(hopf)
    cols = []
    for i in range(b.rank):
        endo = images[i]
        for j in range(algebra.rank):
            cols.append(algebra.carrier.vector(endo.column(j)
                                               if isinstance(endo, LinearMap)
                                               else endo[j]))
    action = LinearMap.from_columns(tensor_module(b.carrier, algebra.carrier),
                                    algebra.carrier, cols)
    return WeakActionData(hopf, algebra, action)


def validate_weak_action(w: WeakActionData, subject: str = "weak action") -> ValidationReport:
    rep = ValidationReport(subject)
    b = w.bialgebra
    A = w.algebra
    ring = w.ring
    rH, rA = b.rank, A.rank
    # 1_H acts as the identity
    witness = None
    for j in range(rA):
        e = A.carrier.basis_vector(j)
        if w.act(b.algebra.unit, e) != e:
            witness = A.carrier.labels[j]
            break
    rep.add("action.unit_acts", "1_H ⇀ a = a", witness is None, witness)
    # h·1_A = ε(h)·1_A
    witness = None
    for i in range(rH):
        got = w.act_basis(i, A.unit)
        want = vec_scale(ring, b.coalgebra.counit_scalar(b.carrier.basis_vector(i)),
                         A.unit)
        if got != want:
            witness = b.carrier.labels[i]
            break
    rep.add("action.unit_target", "h ⇀ 1_A = ε(h)1_A", witness is None, witness)
    # measuring: h(ab) = Σ (h₁a)(h₂b)
    lhs = w.action @ kron(LinearMap.identity(b.carrier), A.mult)
    rhs = A.mult @ kron(w.action, w.action) @ _spread_coproduct(b, A)
    witness = column_witness(lhs, rhs, product_labels(
        b.carrier.labels, A.carrier.labels, A.carrier.labels))
    rep.add("action.measuring", "h ⇀ (ab) = Σ(h₁⇀a)(h₂⇀b)", witness is None, witness)
    return rep


def _spread_coproduct(b, A: AlgebraData) -> LinearMap:
    """(id⊗τ⊗id)∘(Δ⊗id⊗id): H⊗A⊗A → H⊗A⊗H⊗A, h⊗a⊗a' ↦ Σ h₁⊗a⊗h₂⊗a'."""
    rH, rA = b.rank, A.rank
    cols = []
    for col in b.coalgebra.comult.sparse_columns():
        terms = [divmod(flat, rH) + (d,) for flat, d in col]
        for a in range(rA):
            for a2 in range(rA):
                cols.append([(((h1 * rA + a) * rH + h2) * rA + a2, d)
                             for h1, h2, d in terms])
    ha = tensor_module(b.carrier, A.carrier)
    return LinearMap.from_sparse_columns(tensor_module(ha, A.carrier),
                                         tensor_module(ha, ha), cols)


class ComoduleAlgebraData:
    """A right H-comodule algebra: ϱ: B → B⊗H coassociative, counital,
    multiplicative, with ϱ(1) = 1⊗1."""

    def __init__(self, hopf: HopfLike, algebra: AlgebraData, coaction: LinearMap):
        b = bialgebra_of(hopf)
        if coaction.domain.rank != algebra.rank or \
                coaction.codomain.rank != algebra.rank * b.rank:
            raise DimensionMismatch("coaction must map B to B⊗H")
        if b.ring != algebra.ring:
            raise RingMismatch("comodule structures over different rings")
        self.hopf = hopf
        self.algebra = algebra
        self.coaction = coaction

    @property
    def bialgebra(self):
        return bialgebra_of(self.hopf)

    @property
    def ring(self):
        return self.algebra.ring

    def coact_sparse(self, i: int):
        """ϱ(b_i) as a list of (b-index, h-index, coefficient)."""
        rH = self.bialgebra.rank
        return [(flat // rH, flat % rH, c)
                for flat, c in self.coaction.sparse_columns()[i]]

    def validate(self, subject: str = "comodule algebra") -> ValidationReport:
        rep = ValidationReport(subject)
        b = self.bialgebra
        B = self.algebra
        idb = LinearMap.identity(B.carrier)
        idh = LinearMap.identity(b.carrier)
        lhs = kron(self.coaction, idh) @ self.coaction
        rhs = kron(idb, b.coalgebra.comult) @ self.coaction
        rep.add("comodule.coassoc", "(ϱ⊗id)∘ϱ = (id⊗Δ)∘ϱ", lhs == rhs,
                column_witness(lhs, rhs, B.carrier.labels))
        counit_side = kron(idb, b.coalgebra.counit) @ self.coaction
        rep.add("comodule.counit", "(id⊗ε)∘ϱ = id", counit_side == idb,
                column_witness(counit_side, idb, B.carrier.labels))
        bh = tensor_algebra(B, b.algebra)
        lhs2 = self.coaction @ B.mult
        rhs2 = bh.mult @ kron(self.coaction, self.coaction)
        witness = column_witness(lhs2, rhs2, product_labels(B.carrier.labels,
                                                            B.carrier.labels))
        rep.add("comodule.multiplicative", "ϱ is an algebra morphism",
                witness is None, witness)
        ok = self.coaction.apply(B.unit) == kron_vec(self.ring, B.unit,
                                                     b.algebra.unit)
        rep.add("comodule.unit", "ϱ(1) = 1⊗1", ok, None if ok else "1")
        return rep


def regular_comodule(h: HopfLike) -> ComoduleAlgebraData:
    """H as a right H-comodule algebra over itself via Δ."""
    b = bialgebra_of(h)
    coaction = LinearMap(b.carrier, tensor_module(b.carrier, b.carrier),
                         b.coalgebra.comult.matrix)
    return ComoduleAlgebraData(h, b.algebra, coaction)


@dataclass
class Coinvariants:
    """A spanning set for B^{coH} = {b | ϱ(b) = b⊗1}, with its inclusion."""

    module: FreeModule
    inclusion: LinearMap
    vectors: tuple

    @property
    def rank(self):
        return len(self.vectors)

    def express(self, b_vec):
        """Coefficients of a coinvariant element in the computed basis, or None."""
        return submodule_membership(self.module.ring, self.vectors, b_vec)


def coinvariants(c: ComoduleAlgebraData) -> Coinvariants:
    """Kernel of ϱ - (id ⊗ 1_H), canonicalized; checked to be a direct summand."""
    b = c.bialgebra
    B = c.algebra
    ring = c.ring
    unit_embed = LinearMap.from_columns(unit_module(ring), b.carrier,
                                        [b.algebra.unit])
    embed = kron(LinearMap.identity(B.carrier), unit_embed)
    embed = LinearMap(B.carrier, c.coaction.codomain, embed.matrix)
    diff = c.coaction - embed
    res = solve_linear(diff, (ring.zero,) * diff.codomain.rank)
    vectors = res.kernel_basis
    if vectors and split_coefficient_map(ring, vectors, B.rank) is None:
        raise ValidationError("coinvariants do not span a direct summand")
    module = FreeModule(ring, len(vectors), tuple(f"c{i}" for i in range(len(vectors))))
    inclusion = LinearMap.from_columns(module, B.carrier, list(vectors))
    return Coinvariants(module, inclusion, vectors)


def coinvariants_form_subalgebra(c: ComoduleAlgebraData, coin: Coinvariants) -> bool:
    """Closure of the coinvariant span under unit and products."""
    if coin.express(c.algebra.unit) is None:
        return False
    for u in coin.vectors:
        for v in coin.vectors:
            if coin.express(c.algebra.product(u, v)) is None:
                return False
    return True
