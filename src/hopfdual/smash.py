"""The five smash-type algebras over a comodule algebra B and a subalgebra
U of the dual:

* #(H,B)   on Hom(H,B):  (f ⋆̂ g)(h) = Σ f(g(h₂)₍₁₎h₁) · g(h₂)₍₀₎
* B#U      on B⊗U:       (b#f)(b̃#f̃) = Σ b·b̃₍₀₎ # (f·b̃₍₁₎)⋆f̃
* A#H      on A⊗H:       (a#h)(ã#h̃) = Σ a(h₁ã) # h₂h̃
* #^op(H,B) on Hom(H,B): (f ⋆̃ g)(h) = Σ f(h₂)₍₀₎ · g(h₁·f(h₂)₍₁₎)
* B#^opU   on B⊗U:       (b#f)(b̃#f̃) = Σ b₍₀₎·b̃ # (b₍₁₎·f̃)⋆f

U carries the regular H-action of its declared side and all closure data is
witnessed by solved coefficient tables at construction time, all canonical
sparse vectors: u⋆v is ``linalg.bilinear`` on the transpose of Δ (the dual's
multiplication), u·h_j on ``actions.regular_action_table``, each expressed in
U by ``linalg.split_coordinates``, as the coinvariants are.

#(H,B), #^op(H,B), B#U, B#^opU and A#H are built by index arithmetic on the
sparse multiplication, action and coaction tables: each factor that depends on
only some of the column indices (the Sweedler-and-coaction coefficients of a
basis map of Hom(H,B), the U-coordinates of (u_l·h)⋆u_m read off U's closure
witnesses, the nonzero a_i(h₁·a_k)) is computed once per call, and every
column is a sum of table entries.  Every builder then certifies its result
with ``AlgebraData.validate``, whose associativity check is index arithmetic
on the same sparse table, and returns that validated ``AlgebraData``.  The
validation subject names the table (``#(H,B)``, ``#op(H,B)``, ``B#U``,
``B#opU``, ``A#H``), so a failure witness says which table failed.  Every
builder takes H as its ``HopfData``; the ``smash.left`` record certifies that
A#H is the trivial-cocycle crossed product.
"""
from __future__ import annotations

from enum import Enum
from itertools import product

from .actions import (
    ComoduleAlgebraData,
    WeakActionData,
    regular_action_table,
    regular_comodule,
    validate_weak_action,
)
from .crossed import trivial_sigma, twisted_module_identity
from .errors import SideMismatch, ValidationError
from .hopf import AlgebraData, HopfData, dual_hopf
from .linalg import (
    FreeModule,
    LinearMap,
    bilinear,
    combine_columns,
    dual_module,
    hom_module,
    kron_vec,
    legs,
    sparse_column,
    sparse_vector,
    split_coordinates,
    tensor_module,
    transpose,
    unit_vectors,
)


class ModuleSide(Enum):
    RIGHT = "right"
    LEFT = "left"


class SubalgebraU:
    """A spanning list of functionals in H* closed under ⋆ and the regular
    H-action of the declared side, containing ε, spanning a direct summand;
    the elements are canonical sparse functionals, and ``express`` is the
    ``split_coordinates`` function that certifies the split."""

    def __init__(self, hopf: HopfData, elements, side: ModuleSide):
        ring, rH = hopf.ring, hopf.rank
        self.hopf = hopf
        self.side = side
        self.elements = tuple(elements)
        self.express = split_coordinates(ring, self.elements, rH)
        if self.express is None:
            raise ValidationError(
                "span(U) is not a direct summand of H* with independent generators")
        self.module = FreeModule(ring, len(self.elements), "u{}".format)
        self.eps_coords = self.express(sparse_vector(hopf.coalgebra.counit_values()))
        if self.eps_coords is None:
            raise ValidationError("ε_H is not in span(U)")
        dual = dual_module(hopf.carrier)
        star = bilinear(ring, transpose(hopf.coalgebra.comult, tensor_module(dual, dual),
                                        dual), rH)
        act = bilinear(ring, regular_action_table(hopf, side is ModuleSide.LEFT), rH)
        self.star_witness = self._witnesses(star, self.elements,
                                            "U is not ⋆-closed at (u{},u{})")
        self.action_witness = self._witnesses(
            act, unit_vectors(ring, rH), f"U is not closed under the {side.value} regular action")

    def _witnesses(self, prod, right, failure: str) -> dict:
        """(i, j) ↦ the U-coordinates of prod(u_i, right[j]); ``failure``,
        formatted with (i, j), is the error when one is outside span(U)."""
        out = {}
        for (i, u), (j, v) in product(enumerate(self.elements), enumerate(right)):
            out[i, j] = self.express(prod(u, v))
            if out[i, j] is None:
                raise ValidationError(failure.format(i, j))
        return out

    @property
    def rank(self):
        return len(self.elements)

    @classmethod
    def full_dual(cls, hopf: HopfData, side: ModuleSide = ModuleSide.RIGHT) -> "SubalgebraU":
        return cls(hopf, unit_vectors(hopf.ring, hopf.rank), side)


def _validated(subject: str, alg: AlgebraData) -> AlgebraData:
    alg.validate(subject).require()
    return alg


def hat_smash(hopf: HopfData, B: ComoduleAlgebraData) -> AlgebraData:
    """#(H,B) = (Hom_R(H,B), ⋆̂) with unit η_B∘ε_H."""
    return _hom_smash(hopf, B, False)


def op_hat_smash(hopf: HopfData, B: ComoduleAlgebraData) -> AlgebraData:
    """#^op(H,B) = (Hom_R(H,B), ⋆̃) with the same unit."""
    return _hom_smash(hopf, B, True)


def _hom_smash(hopf: HopfData, B: ComoduleAlgebraData, op: bool) -> AlgebraData:
    """#(H,B) or #^op(H,B) by index arithmetic, column (f, g) for the basis
    maps f = [h_fj ↦ b_fi] and g = [h_gj ↦ b_gi].

    At h = h_t only the coacted map's value varies: ⋆̂ reads g(h₂) and then
    f(b₍₁₎h₁); ⋆̃ reads f(h₂) and then g(h₁b₍₁₎).  So, once per coacted map,
    the terms (t, b₀, Σ c·c'·[h_x in the H-product]) are tabulated per
    H-index x of the other map; each column then scales B-products b_fi·b₀
    (op: b₀·b_gi) read off the sparse multiplication table.
    """
    ring = hopf.ring
    zero, mul, add = ring.zero, ring.mul, ring.add
    rH, rB = hopf.rank, B.algebra.rank
    carrier = hom_module(hopf.carrier, B.algebra.carrier)
    hcols = hopf.algebra.mult.sparse_columns()
    bcols = B.algebra.mult.sparse_columns()
    coact = [legs(col, rH) for col in B.coaction.sparse_columns()]
    by_h2 = [[] for _ in range(rH)]  # Δ(h_t) = Σ c·h_t1⊗h_t2, grouped by t2
    for t in range(rH):
        for c, (t1, t2) in hopf.coalgebra.sweedler_basis(t, 2):
            by_h2[t2].append((t, t1, c))

    def terms(ci, cj):
        out = [[] for _ in range(rH)]
        for t, t1, c in by_h2[cj]:
            for b0, b1, cc in coact[ci]:
                for x, coeff in hcols[t1 * rH + b1] if op else hcols[b1 * rH + t1]:
                    out[x].append((t, b0, mul(mul(c, cc), coeff)))
        return out

    table = [[terms(ci, cj) for cj in range(rH)] for ci in range(rB)]
    cols = []
    for fi in range(rB):
        for fj in range(rH):
            for gi in range(rB):
                for gj in range(rH):
                    acc = {}
                    for t, b0, s in (table[fi][fj][gj] if op else table[gi][gj][fj]):
                        for bidx, bv in bcols[b0 * rB + gi] if op else bcols[fi * rB + b0]:
                            pos = bidx * rH + t
                            acc[pos] = add(acc.get(pos, zero), mul(s, bv))
                    cols.append(sparse_column(acc))
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    unit = kron_vec(ring, B.algebra.unit, hopf.coalgebra.counit_values())
    return _validated("#op(H,B)" if op else "#(H,B)", AlgebraData(carrier, mult, unit))


def right_smash(B: ComoduleAlgebraData, U: SubalgebraU) -> AlgebraData:
    """B#U on B⊗U: (b#f)(b̃#f̃) = Σ b·b̃₍₀₎ # (f·b̃₍₁₎)⋆f̃, unit 1_B#ε."""
    if U.side is not ModuleSide.RIGHT:
        raise SideMismatch("right smash needs a right H-module subalgebra U")
    return _coordinate_smash(B, U, False)


def op_smash(B: ComoduleAlgebraData, U: SubalgebraU) -> AlgebraData:
    """B#^opU on B⊗U: (b#f)(b̃#f̃) = Σ b₍₀₎·b̃ # (b₍₁₎·f̃)⋆f, unit 1_B#ε."""
    if U.side is not ModuleSide.LEFT:
        raise SideMismatch("opposite smash needs a left H-module subalgebra U")
    return _coordinate_smash(B, U, True)


def _coordinate_smash(B: ComoduleAlgebraData, U: SubalgebraU, op: bool) -> AlgebraData:
    """B#U or B#^opU by index arithmetic.  Column (b_i#u_l)(b_k#u_m) sums,
    over the coaction terms c·b₀⊗h_{b₁} of b_k (op: of b_i), c times the
    B-product b_i·b₀ (op: b₀·b_k) read off the sparse multiplication table,
    tensored with the U-coordinates of (u_l·h_{b₁})⋆u_m (op: (h_{b₁}·u_m)⋆u_l),
    once per (l, b₁, m): Σ_s (u_l·h_{b₁})_s·(u_s⋆u_m) over U's closure
    witnesses, since ⋆ is bilinear and U's generators are independent."""
    ring, rH = B.ring, B.hopf.rank
    zero, mul, add = ring.zero, ring.mul, ring.add
    rB, rU = B.algebra.rank, U.rank
    carrier = tensor_module(B.algebra.carrier, U.module)
    bcols = B.algebra.mult.sparse_columns()
    coact = [legs(col, rH) for col in B.coaction.sparse_columns()]
    uparts = {(l, b1, m): combine_columns(ring, (
        (U.star_witness[s, l if op else m], c)
        for s, c in U.action_witness[m if op else l, b1]))
        for l, b1, m in product(range(rU), range(rH), range(rU))}
    cols = []
    for i in range(rB):
        for l in range(rU):
            for k in range(rB):
                for m in range(rU):
                    acc = {}
                    for b0, b1, c in coact[i] if op else coact[k]:
                        ucoords = uparts[l, b1, m]
                        for bidx, bv in bcols[b0 * rB + k] if op else bcols[i * rB + b0]:
                            cb = mul(c, bv)
                            for uidx, uv in ucoords:
                                pos = bidx * rU + uidx
                                acc[pos] = add(acc.get(pos, zero), mul(cb, uv))
                    cols.append(sparse_column(acc))
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    eps = dict(U.eps_coords)
    unit = kron_vec(ring, B.algebra.unit, [eps.get(s, zero) for s in range(rU)])
    return _validated("B#opU" if op else "B#U", AlgebraData(carrier, mult, unit))


def left_smash(action: WeakActionData) -> AlgebraData:
    """A#H for a genuine module-algebra action (the twisted-module identity
    with σ = η∘(ε⊗ε)): the crossed product with that σ, as ``smash.left``
    certifies.

    By index arithmetic: column (a_i#h_j)(a_k#h_l) sums a_i(h₁·a_k) # h₂h_l
    over the legs h₁ where a_i(h₁·a_k) ≠ 0, listed once per (i, k), with
    Σ c·h₂h_l tabulated once per (j, l, h₁), both from the sparse action and
    multiplication tables."""
    if not twisted_module_identity(action, trivial_sigma(action)):
        raise ValidationError("left smash requires a module-algebra action")
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    zero, mul, add = ring.zero, ring.mul, ring.add
    rH, rA = b.rank, A.rank
    carrier = tensor_module(A.carrier, b.carrier)
    hmul = b.algebra.mult.sparse_columns()
    amul = A.mult.sparse_columns()
    act = action.action.sparse_columns()

    def terms(j, l):  # h₁ ↦ Σ c·h₂h_l over Δ(h_j) = Σ c·h₁⊗h₂
        by_h1 = {}
        for c, (h1, h2) in b.coalgebra.sweedler_basis(j, 2):
            by_h1.setdefault(h1, []).append((hmul[h2 * rH + l], c))
        return {h1: combine_columns(ring, t) for h1, t in by_h1.items()}

    def live(i, k):  # (h₁, a_i·(h₁·a_k)) for the h₁ where it is nonzero
        parts = ((h1, combine_columns(ring, ((amul[i * rA + s], c)
                                             for s, c in act[h1 * rA + k])))
                 for h1 in range(rH))
        return [(h1, part) for h1, part in parts if part]

    table = [[terms(j, l) for l in range(rH)] for j in range(rH)]
    aparts = [[live(i, k) for k in range(rA)] for i in range(rA)]
    cols = []
    for i, j, k, l in product(range(rA), range(rH), range(rA), range(rH)):
        acc = {}
        hterms = table[j][l]
        for h1, apart in aparts[i][k]:
            for x, hc in hterms.get(h1, ()):
                for t, av in apart:
                    pos = t * rH + x
                    acc[pos] = add(acc.get(pos, zero), mul(av, hc))
        cols.append(sparse_column(acc))
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    return _validated("A#H", AlgebraData(carrier, mult,
                                         kron_vec(ring, A.unit, b.algebra.unit)))


def hit_action_of_dual(h: HopfData) -> WeakActionData:
    """H as a left H*-module algebra under f⇀k = Σ k₁f(k₂) (``actions.hit``):
    column δ_l⊗h_j is Σ c·h_k₁ over the terms c·h_k₁⊗h_l of Δ(h_j)."""
    dual = dual_hopf(h)
    cols = [[] for _ in range(h.rank * h.rank)]
    for j in range(h.rank):
        for c, (k1, k2) in h.coalgebra.sweedler_basis(j, 2):
            cols[k2 * h.rank + j].append((k1, c))
    action = LinearMap.from_sparse_columns(tensor_module(dual.carrier, h.carrier),
                                           h.carrier, cols)
    w = WeakActionData(dual, h.algebra, action)
    validate_weak_action(w, "hit action of the dual").require()
    return w


def smash_compare(h: HopfData) -> bool:
    """The two algebra structures on H⊗H*: the left smash for the hit action
    of H* and the right smash for Δ and the right regular action.  At finite
    free rank their structure constants must be equal outright; a table that
    fails its own validation raises."""
    left = left_smash(hit_action_of_dual(h))
    right = right_smash(regular_comodule(h), SubalgebraU.full_dual(h, ModuleSide.RIGHT))
    return left.mult == right.mult and left.unit == right.unit
