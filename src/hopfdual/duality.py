"""Duality maps and theorem verifiers.

Two mirrored families are built from a crossed product A#_σH and U ⊆ H*:

* right side (reads the twisted antipode S̄): the pentagon with corners
  (A#_σH)#U, #(H,A#_σH), End_{-A}(H⊗A), A⊗(H#U) and maps α, γ, δ, π, ν, χ;
* op side (reads only S): the same shape with the barred maps and the corner
  End_{A-}(A⊗H), built from the opposite smash products.

Every map takes H as its ``HopfData``, which carries both S and S̄.  The
smash corners (A#_σH)#U and H#U (op: #^opU) are the validated
``AlgebraData`` tables that the ``smash`` builders return.

One-sided-linear endomorphism spaces are materialized as free modules of
maps out of H: an element of End_{-A}(H⊗A) is determined by its values on
h⊗1 and is stored as a map H → H⊗A (rank(H)²·rank(A) coordinates); linearity
is built into the representation rather than checked.  The duality
isomorphism is χ⁻¹∘γ, the map the commuting diagram produces, read in λ's
coordinates for any U; its multiplicativity is a theorem-test, not a search.

γ and δ are evaluated by their Sweedler expansions, with the legs that
multiply merged by Δ(xy) = Δ(x)Δ(y) (right δ: 4 legs of k and 5 of h·m; op
δ: 7 of k and 2 of m·h; right γ: 2 of h, 2 of k and 3 of h′k′; op γ: 4 of k
and 2 of h, as written), without repeated work: each factor (σ⁻¹, σ, the
action, the H-part) is tabulated per call by the leg indices it reads, and
the functional f, which enters only through f(k_last), is applied in a final
contraction.  The other Sweedler sums take the same route: φ₁/φ₂ and ε/ε⁻¹
form each product once per (column, leg); π sums its factor that does not
read g once per (h_t, last leg) and reads each column off the products of
basis elements; ν tabulates its A-part by leg indices; χ places a beside the
columns of λ.  Values in Hom(H, B) are added into a {flat index:
coefficient} dict with ``linalg.hom_scatter``, and every map is written as
its canonical sparse columns.  The hypothesis checks (the coactions υ/ω, φ
and ψ) read the same sparse tables, and each membership question factors its
span once.  The tables live for one call.

Every factor is a canonical sparse vector read off a sparse table with
``linalg.bilinear`` or ``linalg.linear``, and so are λ's hit values, ρ(g),
the RL witnesses and the generators of J(A⊗V).  The sums of γ and δ
accumulate in {flat index: coefficient} dicts with ``_add_outer``, and the
left side of check 1c multiplies with ``AlgebraData.product`` so that it
shares no code with the coaction's builder.  U's elements and a V span
are canonical sparse functionals too: ``suites.Derived`` reads an entry's
spans once, and ``coaction_preimage_of_U``, ``coefficient_space_of_action``
and the S̄-pullback of the Blattner-Montgomery route write sparse ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable, Optional

from .actions import (
    ComoduleAlgebraData,
    WeakActionData,
    hit,
    regular_action_table,
    regular_comodule,
)
from .crossed import CrossedProductData, OppositeCrossed, trivial_sigma
from .errors import (
    CommutativityFailure,
    DimensionMismatch,
    NotInvertible,
    SideMismatch,
    ValidationError,
)
from .hopf import (
    AlgebraData,
    AlgebraIso,
    HopfData,
    certify_algebra_iso,
    endomorphism_algebra,
    matrix_algebra,
    tensor_algebra,
)
from .linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    bilinear,
    column_witness,
    combine_columns,
    determinant,
    dual_module,
    hom_module,
    hom_scatter,
    kron,
    kron_column,
    kron_vec,
    linear,
    product_label,
    sparse_column,
    sparse_vector,
    tensor_module,
    transpose,
    twist_map,
    unit_vectors,
)
from .reporting import ValidationReport
from .smash import (
    ModuleSide,
    SubalgebraU,
    hat_smash,
    op_hat_smash,
    op_smash,
)


class DiagramSide(Enum):
    RIGHT = "right"
    OP = "op"


# ---------------------------------------------------------------------------
# λ, ρ and the RL-condition


def lambda_map(hopf: HopfData, U: SubalgebraU) -> LinearMap:
    """λ: H#U → End_R(H), h#g ↦ [k ↦ h·(g⇀k)] for a right U, and
    λ̄: H#^opU → End_R(H), h#g ↦ [k ↦ (g⇀k)·h] for a left U."""
    b = hopf.bialgebra
    ring = b.ring
    rH = b.rank
    right = U.side is ModuleSide.RIGHT
    end_mod = hom_module(b.carrier, b.carrier)
    hprod = bilinear(ring, b.algebra.mult, rH)
    e = unit_vectors(ring, rH)
    hits = [[hit(hopf, f, t) for t in range(rH)] for f in U.elements]
    cols = []
    for i in range(rH):
        for f_hits in hits:
            out = {}
            for t in range(rH):
                val = hprod(e[i], f_hits[t]) if right else hprod(f_hits[t], e[i])
                hom_scatter(out, ring, ring.one, val, rH, t)
            cols.append(sparse_column(out))
    return LinearMap.from_sparse_columns(tensor_module(b.carrier, U.module), end_mod, cols)


def rho_endo(hopf: HopfData, g) -> tuple:
    """ρ(g) = [k ↦ k↼g = Σ g(k₁)k₂] as an End_R(H) coordinate vector; g and
    ρ(g) are canonical sparse vectors."""
    b = hopf.bialgebra
    ring, rH, g = b.ring, b.rank, dict(g)
    out = {}
    for t in range(rH):
        for c, (k1, k2) in b.coalgebra.sweedler_basis(t, 2):
            if k1 in g:
                hom_scatter(out, ring, ring.mul(c, g[k1]), ((k2, ring.one),), rH, t)
    return sparse_column(out)


@dataclass
class RLWitness:
    g: tuple
    pairs: tuple  # ((h, g_j), ...) with Σ h_j(g_j⇀k) = k↼g (right side), all sparse


@dataclass
class RLReport:
    witnesses: list
    failures: list

    @property
    def ok(self):
        return not self.failures


def rl_check(hopf: HopfData, U: SubalgebraU, lam_coords, V) -> RLReport:
    """Solve λ(ξ) = ρ(g) (λ̄ for a left U) for each g in V, canonical sparse
    vectors, with ``lam_coords``, the ``solve`` of one :class:`PreparedSolver`
    of λ's columns."""
    rU, us = U.rank, U.elements
    witnesses, failures = [], []
    for g in V:
        xi = lam_coords(rho_endo(hopf, g))
        if xi is None:
            failures.append(g)
            continue
        witnesses.append(RLWitness(g, tuple((((pos // rU, c),), us[pos % rU])
                                             for pos, c in xi)))
    return RLReport(witnesses, failures)


# ---------------------------------------------------------------------------
# φ-maps: #(H,H) ↔ End_R(H)


def phi_maps(h: HopfData, side: DiagramSide = DiagramSide.RIGHT):
    """Mutually inverse (φ₁, φ₂) between #(H,H) and End_R(H).

    Right: φ₁(f) = [h ↦ Σ f(h₂)h₁],  φ₂(g) = [k ↦ Σ g(k₂)S̄(k₁)].
    Op:    φ̄₁(f) = [h ↦ Σ h₁f(h₂)],  φ̄₂(g) = [k ↦ Σ S(k₁)g(k₂)].
    """
    b = h.bialgebra
    end_mod = hom_module(b.carrier, b.carrier)
    anti = h.twisted_antipode if side is DiagramSide.RIGHT else h.antipode
    pair = ((lambda x, k: (x, k)) if side is DiagramSide.RIGHT
            else (lambda x, k: (k, x)))

    def phi(k_of):
        return LinearMap.from_sparse_columns(end_mod, end_mod, _sweedler_columns(
            b, b.rank, b.algebra, pair, k_of))

    phi1, phi2 = phi(unit_vectors(b.ring, b.rank)), phi(anti.sparse_columns())
    ident = LinearMap.identity(end_mod)
    if phi1 @ phi2 != ident or phi2 @ phi1 != ident:
        raise ValidationError("φ₁ and φ₂ are not mutually inverse")
    _assert_phi_multiplicative(h, phi1, side)
    return phi1, phi2


def _assert_phi_multiplicative(h: HopfData, phi1: LinearMap, side: DiagramSide):
    """φ₁ is an algebra morphism #(H,H) → End(H) (resp. into End(H)^op)."""
    b = h.bialgebra
    source = (hat_smash(h, regular_comodule(h)) if side is DiagramSide.RIGHT
              else op_hat_smash(h, regular_comodule(h)))
    end = endomorphism_algebra(b.carrier)
    target = end if side is DiagramSide.RIGHT else end.opposite()
    certify_algebra_iso(source, target, phi1, "φ₁")


def _sweedler_columns(b, rank, algebra, pair, k_of):
    """The sparse columns (i, j) of a map out of Hom(H, V), rank(V) =
    ``rank``, into Hom(H, ·): the value at h_t is Σ c·v_i'k' over the terms
    c·h_t₁⊗h_t₂ of Δ(h_t) with t₂ = j, where (v_i', k') = pair(v_i,
    k_of[t₁]) are multiplied in ``algebra`` (φ₁, φ₂, ε and ε⁻¹).  The terms
    are grouped by t₂ once per call, and each product is formed once per
    (i, t₁) from the sparse table."""
    ring, rH = b.ring, b.rank
    prod = bilinear(ring, algebra.mult, algebra.rank)
    by_j = [[[] for _ in range(rH)] for _ in range(rH)]  # by_j[t₂][t]: (c, t₁)
    for t in range(rH):
        for c, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
            by_j[t2][t].append((c, t1))
    cols = []
    for v in unit_vectors(ring, rank):
        prods = [prod(*pair(v, k)) for k in k_of]
        for terms in by_j:
            out = {}
            for t, tt in enumerate(terms):
                for c, t1 in tt:
                    hom_scatter(out, ring, c, prods[t1], rH, t)
            cols.append(sparse_column(out))
    return cols


# ---------------------------------------------------------------------------
# one-sided endomorphism representations


def end_rep_module(hopf: HopfData, A: AlgebraData, side: DiagramSide) -> FreeModule:
    target = (tensor_module(hopf.carrier, A.carrier) if side is DiagramSide.RIGHT
              else tensor_module(A.carrier, hopf.carrier))
    return hom_module(hopf.carrier, target)


# ---------------------------------------------------------------------------
# ε-maps: Hom(H, A⊗H) ↔ one-sided endomorphisms


def epsilon_maps(h: HopfData, A: AlgebraData, U: SubalgebraU, lam: LinearMap,
                 side: DiagramSide = DiagramSide.RIGHT):
    """(ε, ε⁻¹) with both composites the identity, and χ = ε∘α as matrices
    for the caller's U and its λ (op: λ̄) ``lam``.

    Right: ε(g)(k⊗1) = Σ τ(g(k₂))·(k₁⊗1),  ε⁻¹(F)(k) = Σ τ(F(k₂⊗1))·(1⊗S̄(k₁)).
    Op:    ε̄(g)(1⊗k) = Σ (1⊗k₁)·g(k₂),    ε̄⁻¹(F)(k) = Σ (1⊗S(k₁))·F(1⊗k₂).
    """
    b = h.bialgebra
    ring, mul = b.ring, b.ring.mul
    rH, rA = b.rank, A.rank
    hom_src = hom_module(b.carrier, tensor_module(A.carrier, b.carrier))
    end_mod = end_rep_module(h, A, side)
    ah = tensor_algebra(A, b.algebra)
    one_a = sparse_vector(A.unit)
    e = unit_vectors(ring, rH)
    anti = (h.twisted_antipode if side is DiagramSide.RIGHT else h.antipode).sparse_columns()
    if side is DiagramSide.RIGHT:  # ε: τ(g)·(k⊗1) in H⊗A; ε⁻¹: τ(F)·(1⊗k) in A⊗H
        alg = tensor_algebra(b.algebra, A)
        swap = linear(ring, twist_map(A.carrier, b.carrier))
        swap_back = linear(ring, twist_map(b.carrier, A.carrier))
        eps_pair = lambda g, k: (swap(g), kron_column(k, one_a, rA, mul))
        inv_pair = lambda f, k: (swap_back(f), k)
    else:                          # ε̄: (1⊗k)·g and ε̄⁻¹: (1⊗k)·F, both in A⊗H
        alg = ah
        eps_pair = lambda g, k: (kron_column(one_a, k, rH, mul), g)
        inv_pair = lambda f, k: (k, f)

    eps = LinearMap.from_sparse_columns(hom_src, end_mod, _sweedler_columns(
        b, rA * rH, alg, eps_pair, e))
    eps_inv = LinearMap.from_sparse_columns(end_mod, hom_src, _sweedler_columns(
        b, rA * rH, ah, inv_pair, [kron_column(one_a, col, rH, mul) for col in anti]))

    if eps @ eps_inv != LinearMap.identity(end_mod) or \
            eps_inv @ eps != LinearMap.identity(hom_src):
        raise ValidationError("ε and ε⁻¹ are not mutually inverse")
    if (eps @ alpha_map(h, A, U)) != chi_map(h, A, lam, side):
        raise ValidationError("χ ≠ ε∘α")
    return eps, eps_inv


def alpha_map(hopf: HopfData, A: AlgebraData, U: SubalgebraU) -> LinearMap:
    """α: (A⊗H)⊗U → Hom(H, A⊗H), a⊗h⊗f ↦ [k ↦ (a⊗h)f(k)]."""
    b = hopf.bialgebra
    rH = b.rank
    ah = tensor_module(A.carrier, b.carrier)
    cols = [[(p * rH + t, x) for t, x in f] for p in range(ah.rank) for f in U.elements]
    return LinearMap.from_sparse_columns(tensor_module(ah, U.module),
                                         hom_module(b.carrier, ah), cols)


def chi_map(hopf: HopfData, A: AlgebraData, lam: LinearMap,
            side: DiagramSide = DiagramSide.RIGHT) -> LinearMap:
    """χ(a⊗(h#f)) = [k⊗ã ↦ h(f⇀k)⊗aã] (right) or [ã⊗k ↦ ãa⊗(f⇀k)h] (op),
    on the one-sided representation: the column (h, f) of ``lam`` = λ (resp.
    λ̄) with a = a_i placed beside its value as :func:`_chi_slot` lays out."""
    slot = _chi_slot(side, hopf.rank, A.rank)
    cols = [[(slot(i, pos), x) for pos, x in col]
            for i in range(A.rank) for col in lam.sparse_columns()]
    return LinearMap.from_sparse_columns(tensor_module(A.carrier, lam.domain),
                                         end_rep_module(hopf, A, side), cols)


def _chi_slot(side: DiagramSide, rH: int, rA: int):
    """χ's layout: beside a_i, the entry at pos = p·rH+t of a column of λ (op:
    λ̄) moves to (p·rA+i)·rH+t (op: (i·rH+p)·rH+t), increasing in pos."""
    if side is DiagramSide.RIGHT:
        return lambda i, pos: (pos // rH * rA + i) * rH + pos % rH
    return lambda i, pos: i * rH * rH + pos


# ---------------------------------------------------------------------------
# the commuting diagram


@dataclass
class DualityDiagram:
    side: DiagramSide
    crossed: CrossedProductData
    smash_source: AlgebraData           # (A#_σH)#U  or  (A#_σH)#^opU
    tensor_target: AlgebraData          # A⊗(H#U)    or  A⊗(H#^opU)
    alpha: LinearMap
    gamma: LinearMap
    delta: LinearMap
    pi: LinearMap
    nu: LinearMap
    chi: LinearMap


def nu_map(cp: CrossedProductData) -> LinearMap:
    """ν: A#_σH → H⊗A, a#h ↦ Σ h₄ ⊗ [S̄(h₃)a]σ(S̄(h₂)⊗h₁).  The A-part is
    read off the sparse tables once per (h₁, h₂, h₃, a) and summed per h₄."""
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA = b.rank, A.rank
    Sb = h.twisted_antipode.sparse_columns()
    e, a_e = unit_vectors(ring, rH), unit_vectors(ring, rA)
    act = bilinear(ring, cp.action.action, rA)
    sigma = bilinear(ring, cp.cocycle.sigma, rH)
    aprod = bilinear(ring, A.mult, rA)
    apart = cache(lambda h1, h2, h3, i: aprod(act(Sb[h3], a_e[i]), sigma(Sb[h2], e[h1])))
    cols = []
    for i in range(rA):
        for j in range(rH):
            by_h4 = {}
            for c, (h1, h2, h3, h4) in b.coalgebra.sweedler_basis(j, 4):
                by_h4.setdefault(h4, []).append((apart(h1, h2, h3, i), c))
            cols.append([(h4 * rA + p, x) for h4 in sorted(by_h4)
                         for p, x in combine_columns(ring, by_h4[h4])])
    return LinearMap.from_sparse_columns(cp.carrier, tensor_module(b.carrier, A.carrier),
                                         cols)


def gamma_map(cp: CrossedProductData, U: SubalgebraU,
              side: DiagramSide) -> LinearMap:
    """γ((a#h)#f) on the one-sided representation.

    Right: (k⊗1) ↦ Σ h₄(f⇀k₃) ⊗ [S̄(h₃k₂)a]σ(S̄(h₂k₁)⊗h₁)
    Op:    (1⊗k) ↦ Σ [k₁a]σ(k₂⊗h₁) ⊗ (f⇀k₃)h₂

    Right, h₂k₁ ⊗ h₃k₂ ⊗ h₄k₃ are the legs y of Δ²(h′·k′), h′ = h₂h₃h₄ and
    k′ = k₁k₂k₃ merged (as in δ), so right γ sums y₃ ⊗ [S̄(y₂)a]σ(S̄(y₁)⊗h₁)
    ·f(k₄) over (h₁, h′) ∈ Δ(h), (k′, k₄) ∈ Δ(k), (h′·k′)_p and y ∈ Δ²(h_p),
    its 3-leg sum tabulated by (p, h₁, a) and the sum over Δ(h) by (h, k′, a).
    Op sums 4 legs of k and 2 of h as written.  The sum is formed once per
    (a, h, k, k_last) before it meets each f(k_last).
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA = b.rank, A.rank
    e, a_e = unit_vectors(ring, rH), unit_vectors(ring, rA)
    hmul = b.algebra.mult.sparse_columns()
    act = bilinear(ring, cp.action.action, rA)
    sigma = bilinear(ring, cp.cocycle.sigma, rH)
    aprod = bilinear(ring, A.mult, rA)
    h_terms = [b.coalgebra.sweedler_basis(j, 2) for j in range(rH)]
    if side is DiagramSide.RIGHT:
        Sb = h.twisted_antipode.sparse_columns()
        apart = cache(lambda y1, y2, h1, i: aprod(act(Sb[y2], a_e[i]), sigma(Sb[y1], e[h1])))

        @cache
        def inner(p, h1, i):
            vec = {}
            for c, (y1, y2, y3) in b.coalgebra.sweedler_basis(p, 3):
                _add_outer(vec, ring, c, e[y3], apart(y1, y2, h1, i), rA)
            return sparse_column(vec)

        @cache
        def merged(j, k, i):
            vec = {}
            for ch, (h1, h2) in h_terms[j]:
                for p, x in hmul[h2 * rH + k]:  # vec += ch·x·inner
                    _add_outer(vec, ring, ch, ((0, x),), inner(p, h1, i), 0)
            return sparse_column(vec)

        def add_term(vec, ck, i, j, kl):
            _add_outer(vec, ring, ck, ((0, ring.one),), merged(j, kl[0], i), 0)
        k_legs = 2
    else:
        apart = cache(lambda k1, k2, h1, i: aprod(act(e[k1], a_e[i]), sigma(e[k2], e[h1])))

        def add_term(vec, ck, i, j, kl):
            k1, k2, k3, _ = kl
            for ch, (h1, h2) in h_terms[j]:
                _add_outer(vec, ring, ring.mul(ck, ch), apart(k1, k2, h1, i),
                           hmul[k3 * rH + h2], rH)
        k_legs = 4
    return _tabulated(cp, U, tensor_module(cp.carrier, U.module),
                      end_rep_module(h, A, side), k_legs, add_term)


def delta_map(cp: CrossedProductData, U: SubalgebraU,
              side: DiagramSide) -> LinearMap:
    """δ(a⊗(h#f)) ∈ Hom(H, A#_σH) by Sweedler expansion.

    Right: k ↦ Σ σ⁻¹(h₂k₄⊗S̄(h₁k₃))[(h₃k₅)a]σ(h₄k₆⊗S̄(k₂)) # h₅(f⇀k₇)S̄(k₁)
    Op:    k ↦ Σ σ⁻¹(S(k₄)⊗k₅)[S(k₃)a]σ(S(k₂)⊗k₆h₁) # S(k₁)(f⇀k₇)h₂

    Both sides merge the legs that meet h, as Δ is coassociative and
    multiplicative on every path here (``build_crossed_product`` certifies
    the comodule algebra A#_σH, ϱ = id⊗Δ, and σ is invertible).  Right,
    h₁k₃ … h₅k₇ are the legs y of Δ⁴(h·m), m = k₃…k₇ merged: the sum of
    σ⁻¹(y₂⊗S̄(y₁))[y₃⇀a]σ(y₄⊗S̄(k₂)) # y₅S̄(k₁) runs over (k₁,k₂,m,k₈) ∈ Δ³(k),
    (h·m)_p and y ∈ Δ⁴(h_p), its 5-leg part tabulated by (p, k₁, k₂, a).  Op,
    k₆h₁ ⊗ k₇h₂ are the legs y of Δ(m·h), m = k₆k₇ merged: σ(S(k₂)⊗y₁) ⊗
    S(k₁)y₂ is summed over (m·h)_p and y ∈ Δ(h_p) per (m, h, k₁, k₂), and its
    A-parts are multiplied on the left by σ⁻¹(S(k₄)⊗k₅)[S(k₃)a] for each
    (k₁,…,k₅,m,k₈) ∈ Δ⁶(k).  f(k₈) is applied to the sum per (a, h, k, k₈).
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA = b.rank, A.rank
    e, a_e = unit_vectors(ring, rH), unit_vectors(ring, rA)
    hmul = b.algebra.mult.sparse_columns()
    Sb, S = h.twisted_antipode.sparse_columns(), h.antipode.sparse_columns()
    act = bilinear(ring, cp.action.action, rA)
    sigma = bilinear(ring, cp.cocycle.sigma, rH)
    sigma_inv = bilinear(ring, cp.cocycle.sigma_inv, rH)
    hprod = bilinear(ring, b.algebra.mult, rH)
    aprod = cache(bilinear(ring, A.mult, rA))  # keyed by the factors' values
    dom = tensor_module(A.carrier, tensor_module(b.carrier, U.module))
    cod = hom_module(b.carrier, cp.carrier)
    if side is DiagramSide.RIGHT:
        s1 = cache(lambda y1, y2: sigma_inv(e[y2], Sb[y1]))
        acted = cache(lambda y3, i: act(e[y3], a_e[i]))
        s2 = cache(lambda y4, k2: sigma(e[y4], Sb[k2]))
        hpart = cache(lambda y5, k1: hprod(e[y5], Sb[k1]))

        @cache
        def inner(p, k1, k2, i):
            vec = {}
            for c, (y1, y2, y3, y4, y5) in b.coalgebra.sweedler_basis(p, 5):
                apart = aprod(aprod(s1(y1, y2), acted(y3, i)), s2(y4, k2))
                _add_outer(vec, ring, c, apart, hpart(y5, k1), rH)
            return sparse_column(vec)

        def add_term(vec, ck, i, j, kl):
            k1, k2, m, _ = kl
            for p, x in hmul[j * rH + m]:  # vec += ck·x·inner
                _add_outer(vec, ring, ck, ((0, x),), inner(p, k1, k2, i), 0)

        return _tabulated(cp, U, dom, cod, 4, add_term)

    @cache
    def left(k3, k4, k5, i):  # σ⁻¹(S(k₄)⊗k₅)[S(k₃)a_i]·a_r for each r
        s1_acted = aprod(sigma_inv(S[k4], e[k5]), act(S[k3], a_e[i]))
        return [aprod(s1_acted, a) for a in a_e]

    s2 = cache(lambda k2, y1: sigma(S[k2], e[y1]))
    hpart = cache(lambda k1, y2: hprod(S[k1], e[y2]))

    @cache
    def inner(m, j, k1, k2):  # (r, H-part of the a_r-coordinate), r increasing
        vec = {}
        for p, x in hmul[m * rH + j]:
            for c, (y1, y2) in b.coalgebra.sweedler_basis(p, 2):
                _add_outer(vec, ring, ring.mul(x, c), s2(k2, y1), hpart(k1, y2), rH)
        by_r = {}
        for pos, x in sparse_column(vec):
            by_r.setdefault(pos // rH, []).append((pos % rH, x))
        return list(by_r.items())

    def add_term(vec, ck, i, j, kl):
        k1, k2, k3, k4, k5, m, _ = kl
        products = left(k3, k4, k5, i)
        for r, w in inner(m, j, k1, k2):
            _add_outer(vec, ring, ck, products[r], w, rH)
    return _tabulated(cp, U, dom, cod, 7, add_term)


def _tabulated(cp, U, dom, cod, k_legs, add_term):
    """The map dom → cod = Hom(H, B) whose column (a_i, h_j, f_l) has value
    Σ c_k·f_l(k_last)·s(i, j, k-legs) at h_t, where c_k runs over the
    ``k_legs``-fold expansion of h_t and add_term(vec, c_k, i, j, k-legs)
    adds c_k·s(i, j, k-legs) ∈ B into the dict accumulator ``vec``.  The sum
    is formed once per (i, j, t, k_last) and then contracted with each f_l."""
    b = cp.action.bialgebra
    ring = cp.ring
    rH = b.rank
    fs = [dict(f) for f in U.elements]
    live = {k for f in fs for k in f}
    cols = []
    for i in range(cp.action.algebra.rank):
        for j in range(rH):
            acc = {}
            for t in range(rH):
                for ck, kl in b.coalgebra.sweedler_basis(t, k_legs):
                    if kl[-1] in live:
                        add_term(acc.setdefault((t, kl[-1]), {}), ck, i, j, kl)
            sums = [(t, k, sparse_column(vec)) for (t, k), vec in acc.items()]
            for f in fs:
                out = {}
                for t, k, vec in sums:
                    if k in f:
                        hom_scatter(out, ring, f[k], vec, rH, t)
                cols.append(sparse_column(out))
    return LinearMap.from_sparse_columns(dom, cod, cols)


def _add_outer(acc, ring, c, u, v, width):
    """acc += c·(u⊗v), flattened u-major, for canonical sparse vectors u and
    v, v of rank ``width``, into the {flat index: coefficient} dict ``acc``
    (``sparse_column`` reads the sum off)."""
    mul, add = ring.mul, ring.add
    for p, x in u:
        cx, base = mul(c, x), p * width
        for q, y in v:
            pos, cxy = base + q, mul(cx, y)
            acc[pos] = add(acc[pos], cxy) if pos in acc else cxy


def pi_map(cp: CrossedProductData, side: DiagramSide, nu: LinearMap) -> LinearMap:
    """π: Hom(H, A#_σH) → one-sided endomorphisms.

    Right: π(g)(k⊗1) = Σ ν( g(k₅)·(σ⁻¹(k₂⊗S̄(k₁))(k₃⇀1)#k₄) ), with g(k₅)
    on the left and ``nu`` the map ν of :func:`nu_map` (the op side does not
    read it): the displayed product order is ambiguous, and this is the
    order under which the diagram commutes.
    Op: π̄(g)(1⊗k) = Σ (1#k₁)·g(k₂).

    The factor that does not read g, σ⁻¹(k₂⊗S̄(k₁))(k₃⇀1)#k₄ resp. 1#k₁, is
    summed once per call over the terms of h_t with k_last = j, into E ∈ B.
    The column of g = [h_j ↦ b] at h_t is then ν(b·E) resp. E·b, read off
    ν(b·b_q) resp. b_q·b per basis element b_q of B.
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rB = b.rank, cp.carrier.rank
    mul = ring.mul
    mult = cp.product_algebra.mult.sparse_columns()
    e = unit_vectors(ring, rH)
    one_a = sparse_vector(A.unit)
    if side is DiagramSide.RIGHT:
        Sb = h.twisted_antipode.sparse_columns()
        sigma_inv = bilinear(ring, cp.cocycle.sigma_inv, rH)
        act = bilinear(ring, cp.action.action, A.rank)
        aprod = bilinear(ring, A.mult, A.rank)
        apart = cache(lambda k1, k2, k3: aprod(sigma_inv(e[k2], Sb[k1]), act(e[k3], one_a)))
        nu_cols = nu.sparse_columns()
        legs = 5

        def factor(kl):
            return kron_column(apart(*kl[:3]), e[kl[3]], rH, mul)

        value = cache(lambda b_i, q: combine_columns(
            ring, ((nu_cols[r], x) for r, x in mult[b_i * rB + q])))
    else:
        legs = 2

        def factor(kl):
            return kron_column(one_a, e[kl[0]], rH, mul)

        def value(b_i, q):
            return mult[q * rB + b_i]
    terms = [[[] for _ in range(rH)] for _ in range(rH)]  # terms[t][k_last]
    for t in range(rH):
        for c, kl in b.coalgebra.sweedler_basis(t, legs):
            terms[t][kl[-1]].append((factor(kl), c))
    E = [[combine_columns(ring, by_j) for by_j in row] for row in terms]
    cod = end_rep_module(h, A, side)
    cols = []
    for b_i in range(rB):
        for j in range(rH):
            out = {}
            for t in range(rH):
                for q, x in E[t][j]:
                    hom_scatter(out, ring, x, value(b_i, q), rH, t)
            cols.append(sparse_column(out))
    return LinearMap.from_sparse_columns(hom_module(b.carrier, cp.carrier), cod, cols)


def build_diagram(cp: CrossedProductData, U: SubalgebraU, side: DiagramSide,
                  b_smash: AlgebraData, h_smash: AlgebraData,
                  lam: LinearMap) -> DualityDiagram:
    """Materialize all five corners and maps; assert π∘α = γ, π∘δ = χ and
    that π is invertible.  ``b_smash`` is B#U of B = ``cp.comodule``,
    ``h_smash`` is H#U and ``lam`` is λ (op: B#^opU, H#^opU, λ̄)."""
    h = cp.action.hopf
    A = cp.action.algebra
    u_side = ModuleSide.RIGHT if side is DiagramSide.RIGHT else ModuleSide.LEFT
    if U.side is not u_side:
        raise SideMismatch(f"{side.value} diagram needs a {u_side.value}-side U")
    p4 = tensor_algebra(A, h_smash)
    alpha = alpha_map(h, A, U)
    gamma = gamma_map(cp, U, side)
    delta = delta_map(cp, U, side)
    nu = nu_map(cp) if side is DiagramSide.RIGHT else LinearMap.identity(cp.carrier)
    pi = pi_map(cp, side, nu)
    chi = chi_map(h, A, lam, side)
    lhs1 = pi @ alpha
    if lhs1 != gamma:
        raise CommutativityFailure("π∘α ≠ γ",
                                   witness=column_witness(
                                       lhs1.sparse_columns(), gamma.sparse_columns(),
                                       b_smash.carrier.label))
    lhs2 = pi @ delta
    if lhs2 != chi:
        raise CommutativityFailure("π∘δ ≠ χ",
                                   witness=column_witness(
                                       lhs2.sparse_columns(), chi.sparse_columns(),
                                       p4.carrier.label))
    det = determinant(pi)
    if not cp.ring.is_unit(det):
        raise NotInvertible("π is not invertible", determinant=det)
    return DualityDiagram(side, cp, b_smash, p4, alpha, gamma, delta, pi, nu, chi)


def duality_iso(diagram: DualityDiagram, lam_coords) -> AlgebraIso:
    """The certified isomorphism χ⁻¹∘γ: (A#_σH)#U → A⊗(H#U) (resp. op) of a
    diagram that ``build_diagram`` has checked, for any U.  ``lam_coords``
    is the ``solve`` of one :class:`PreparedSolver` of the diagram's λ (op:
    λ̄).  χ places a_i beside λ's columns, so a column of γ, split into its
    A-slots, has its χ-coordinates slot by slot in λ's; no matrix is
    inverted, and a column of γ outside χ's image raises naming it."""
    cp = diagram.crossed
    rH, rA = cp.action.hopf.rank, cp.action.algebra.rank
    slot = _chi_slot(diagram.side, rH, rA)
    where = {slot(i, pos): (i, pos) for i in range(rA) for pos in range(rH * rH)}
    r_lam = diagram.chi.domain.rank // rA
    cols = []
    for j, col in enumerate(diagram.gamma.sparse_columns()):
        parts = [[] for _ in range(rA)]
        for flat, x in col:
            i, pos = where[flat]
            parts[i].append((pos, x))
        coords = [lam_coords(part) if part else () for part in parts]
        if None in coords:
            label = diagram.smash_source.carrier.label(j)
            raise CommutativityFailure(f"γ({label}) is not in the image of χ",
                                       witness=label)
        cols.append([(i * r_lam + c, x) for i, xi in enumerate(coords) for c, x in xi])
    iso_map = LinearMap.from_sparse_columns(diagram.gamma.domain, diagram.chi.domain, cols)
    name = ("(A#σH)#U ≅ A⊗(H#U)" if diagram.side is DiagramSide.RIGHT
            else "(A#σH)#opU ≅ A⊗(H#opU)")
    return certify_algebra_iso(diagram.smash_source,
                               diagram.tensor_target, iso_map, name)


# ---------------------------------------------------------------------------
# matrix form


@dataclass
class MatrixIsoResult:
    iso: AlgebraIso
    legs: list
    n: int
    matrix_target: AlgebraData


def matrix_iso(cp: CrossedProductData, lam: LinearMap,
               leg1: AlgebraIso) -> MatrixIsoResult:
    """(A#_σH)#H* ≅ A⊗(H#H*) ≅ A⊗End(H) ≅ A⊗M_n(R) ≅ M_n(A), each leg
    certified; M_n(A) is materialized as M_n(R)⊗A.  ``leg1`` is the certified
    right-side duality isomorphism of ``cp`` for a right U and ``lam`` is
    λ of that U: certifying id⊗λ raises ``NotInvertible`` unless λ is
    invertible, which needs U = H*."""
    h = cp.action.hopf
    A = cp.action.algebra
    ring = cp.ring
    n = h.rank
    # A⊗(H#U) → A⊗End(H) via id⊗λ
    end_alg = endomorphism_algebra(h.carrier)
    a_end = tensor_algebra(A, end_alg)
    leg2 = certify_algebra_iso(leg1.target, a_end, kron(LinearMap.identity(A.carrier), lam),
                               "id⊗λ")
    # A⊗End(H) = A⊗M_n(R) bit-identically
    mat = matrix_algebra(ring, n)
    a_mat = tensor_algebra(A, mat)
    if a_end.mult != a_mat.mult or a_end.unit != a_mat.unit:
        raise ValidationError("End(H) and M_n(R) structure constants differ")
    leg3 = AlgebraIso(a_end, a_mat, LinearMap.identity(a_mat.carrier),
                      LinearMap.identity(a_mat.carrier))
    # A⊗M_n(R) ≅ M_n(R)⊗A via the twist
    mat_a = tensor_algebra(mat, A)
    leg4 = certify_algebra_iso(a_mat, mat_a, twist_map(A.carrier, mat.carrier),
                               "A⊗M_n ≅ M_n(A)")
    iso = leg4.compose(leg3.compose(leg2.compose(leg1)))
    if iso.map.codomain.rank != n * n * A.rank:
        raise DimensionMismatch("matrix image has unexpected rank")
    return MatrixIsoResult(iso, [leg1, leg2, leg3, leg4], n, mat_a)


# ---------------------------------------------------------------------------
# compatibility of (V, U)


@dataclass
class CompatReport:
    phi_contained: bool
    psi_contained: bool
    phi_witness: Optional[str]
    psi_witness: Optional[str]
    rl: RLReport
    maps: tuple  # (φ, ψ) as checked

    @property
    def ok(self):
        return self.phi_contained and self.psi_contained and self.rl.ok


def compat_maps(cp: CrossedProductData, side: DiagramSide):
    """φ, ψ: H⊗A → Hom(H, A) (right side; barred versions on the op side).

    Right: φ(h⊗a)(h̃) = Σ [S̄(h̃₂)a]σ(S̄(h̃₁)⊗h)
           ψ(h⊗a)(h̃) = Σ σ⁻¹(h̃₃⊗S̄(h̃₂))[h̃₄a]σ(h̃₅⊗S̄(h̃₁)h)
    Op:    φ̄(h⊗a)(h̃) = Σ [h̃₁a]σ(h̃₂⊗h)
           ψ̄(h⊗a)(h̃) = Σ σ⁻¹(S(h̃₃)⊗h̃₄)[S(h̃₂)a]σ(S(h̃₁)⊗h̃₅h)

    The 2- and 5-leg expansions of h̃ are summed as written.  σ, σ⁻¹, the
    action and the A-products are read off their sparse tables, each factor
    once per call per leg-index key it reads.
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    e, a_e = unit_vectors(ring, b.rank), unit_vectors(ring, A.rank)
    hprod = bilinear(ring, b.algebra.mult, b.rank)
    aprod = bilinear(ring, A.mult, A.rank)
    act = bilinear(ring, cp.action.action, A.rank)
    sigma = bilinear(ring, cp.cocycle.sigma, b.rank)
    sigma_inv = bilinear(ring, cp.cocycle.sigma_inv, b.rank)
    if side is DiagramSide.RIGHT:
        Sb = h.twisted_antipode.sparse_columns()
        acted = cache(lambda t2, j: act(Sb[t2], a_e[j]))
        sig = cache(lambda t1, i: sigma(Sb[t1], e[i]))
        s1_acted = cache(lambda t2, t3, t4, j: aprod(sigma_inv(e[t3], Sb[t2]),
                                                     act(e[t4], a_e[j])))
        s2 = cache(lambda t1, t5, i: sigma(e[t5], hprod(Sb[t1], e[i])))

        def phi(i, j, legs):
            return aprod(acted(legs[1], j), sig(legs[0], i))
    else:
        S = h.antipode.sparse_columns()
        s1_acted = cache(lambda t2, t3, t4, j: aprod(sigma_inv(S[t3], e[t4]),
                                                     act(S[t2], a_e[j])))
        s2 = cache(lambda t1, t5, i: sigma(S[t1], hprod(e[t5], e[i])))

        def phi(i, j, legs):
            return aprod(act(e[legs[0]], a_e[j]), sigma(e[legs[1]], e[i]))

    def psi(i, j, legs):
        t1, t2, t3, t4, t5 = legs
        return aprod(s1_acted(t2, t3, t4, j), s2(t1, t5, i))

    return _hom_values(b, A, 2, phi), _hom_values(b, A, 5, psi)


def _hom_values(b, A, legs, value):
    """The map H⊗A → Hom(H, A) whose column (h_i, a_j) has value
    Σ c·value(i, j, legs) at h_t, over the ``legs``-fold expansion of h_t;
    ``value`` returns a canonical sparse vector of A."""
    ring = b.ring
    rH = b.rank
    cod = hom_module(b.carrier, A.carrier)
    expansions = [b.coalgebra.sweedler_basis(t, legs) for t in range(rH)]
    cols = []
    for i in range(rH):
        for j in range(A.rank):
            out = {}
            for t, terms in enumerate(expansions):
                for c, tl in terms:
                    hom_scatter(out, ring, c, value(i, j, tl), rH, t)
            cols.append(sparse_column(out))
    return LinearMap.from_sparse_columns(tensor_module(b.carrier, A.carrier), cod, cols)


def j_generators(rA: int, V, rH: int):
    """Generators J(a_k ⊗ v): h ↦ a_k·v(h) of J(A⊗V) ⊆ Hom(H, A), rank(A) = rA,
    for canonical sparse functionals v, as canonical sparse vectors."""
    return [tuple((k * rH + t, x) for t, x in v) for k in range(rA) for v in V]


def compat_check(cp: CrossedProductData, U: SubalgebraU, lam_coords, V,
                 side: DiagramSide = DiagramSide.RIGHT, maps=None) -> CompatReport:
    """(V,U) compatibility: φ(H⊗A), ψ(H⊗A) ⊆ J(A⊗V) and the RL-condition.
    ``lam_coords`` is λ's factorization for :func:`rl_check`.  ``maps`` is
    (φ, ψ) when the caller has built them for ``side``; both are tested
    against one factorization of J(A⊗V).  V is a list of canonical sparse
    functionals."""
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    phi, psi = maps or compat_maps(cp, side)
    inside = PreparedSolver(ring, j_generators(A.rank, V, b.rank), A.rank * b.rank).solve
    phi_col = first_outside(inside, phi)
    psi_col = first_outside(inside, psi)
    rl = rl_check(h, U, lam_coords, V)
    pair = product_label(b.carrier, A.carrier)
    return CompatReport(phi_col is None, psi_col is None,
                        None if phi_col is None else pair(phi_col),
                        None if psi_col is None else pair(psi_col), rl, (phi, psi))


def first_outside(express, m: LinearMap) -> Optional[int]:
    """The first column of ``m`` that ``express`` (the ``solve`` of a
    :class:`PreparedSolver` of the span's generators) cannot express, or
    None."""
    return next((j for j, col in enumerate(m.sparse_columns())
                 if express(col) is None), None)


# ---------------------------------------------------------------------------
# the coactions υ and ω on the dual


class CoactionSide(Enum):
    UPSILON = "upsilon"
    OMEGA = "omega"


@dataclass
class CoactionTable:
    side: CoactionSide
    map: LinearMap         # H* → H⊗H*: column i is the image of δ_i
    report: ValidationReport


def coaction_table(h: HopfData, side: CoactionSide) -> CoactionTable:
    """For each basis f of H* solve the characterizing identity for
    Σ f₍₋₁₎⊗f₍₀₎ (unique at finite rank) and verify the structure identities.

    Upsilon: Σ h₃S̄(h₁)f(h₂) = Σ f₍₋₁₎·f₍₀₎(h)
    Omega:   Σ f(h₂)S(h₁)h₃ = Σ f₍₋₁₎·f₍₀₎(h)
    """
    b = h.bialgebra
    Hd = dual_module(b.carrier)
    cmap = LinearMap.from_sparse_columns(Hd, tensor_module(b.carrier, Hd),
                                         _coaction_columns(h, side))
    return CoactionTable(side, cmap, _coaction_checks(h, side, cmap))


def _coaction_columns(h: HopfData, side: CoactionSide) -> list:
    """Column i is Σ f₍₋₁₎⊗f₍₀₎ ∈ H⊗H* for f = δ_i: at (p, t), the h_p-coefficient
    of Σ h₃S̄(h₁)δ_i(h₂) (υ) resp. Σ S(h₁)h₃δ_i(h₂) (ω) at h = h_t.  The
    canonical map H⊗H* → End(H) is the identity on these flattenings, so the
    solution exists and is unique outright."""
    b = h.bialgebra
    ring = b.ring
    rH = b.rank
    e = unit_vectors(ring, rH)
    hprod = bilinear(ring, b.algebra.mult, rH)
    if side is CoactionSide.UPSILON:
        Sb = h.twisted_antipode.sparse_columns()
        term = cache(lambda h1, h3: hprod(e[h3], Sb[h1]))
    else:
        S = h.antipode.sparse_columns()
        term = cache(lambda h1, h3: hprod(S[h1], e[h3]))
    cols = [{} for _ in range(rH)]
    for t in range(rH):
        for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
            hom_scatter(cols[h2], ring, c, term(h1, h3), rH, t)
    return [sparse_column(col) for col in cols]


def _coaction_checks(h: HopfData, side: CoactionSide, cmap) -> ValidationReport:
    """The structure identities of the coaction ``cmap``: H* → H⊗H*, each on
    every basis tuple in order; a failure names the
    first failing tuple.  Both sides of each identity are canonical sparse
    vectors summed, by bilinearity, from tables built once per call: δ_x⋆δ_y,
    δ_y⇀h_t and the left legs of Δ(h_t) from Δ; δ_g·h_p (υ) resp. h_p·δ_g
    (ω) from the multiplication; and (δ_g·h_p)⋆δ_q for all g per (p, q)."""
    b = h.bialgebra
    ring = b.ring
    rH = b.rank
    mul = ring.mul
    ups = side is CoactionSide.UPSILON
    tag = side.value
    rep = ValidationReport(f"coaction table ({tag})")
    e = unit_vectors(ring, rH)
    hprod = bilinear(ring, b.algebra.mult, rH)
    mcols = b.algebra.mult.sparse_columns()
    cm = cmap.sparse_columns()
    # the terms c·h_x⊗h_y of Δ(h_t), read as star[x·rH + y] = δ_x⋆δ_y at h_t,
    # lead[x][t] = Σ c·h_y and hit[y][t] = δ_y⇀h_t = Σ c·h_x
    star = [[] for _ in range(rH * rH)]
    lead = [[[] for _ in range(rH)] for _ in range(rH)]
    hit = [[[] for _ in range(rH)] for _ in range(rH)]
    for t, col in enumerate(b.coalgebra.comult.sparse_columns()):
        for flat, c in col:
            x, y = divmod(flat, rH)
            star[flat].append((t, c))
            lead[x][t].append((y, c))
            hit[y][t].append((x, c))
    # moved[g·rH + p] = δ_g·h_p: l ↦ δ_g(h_p·h_l) (υ), resp.
    # h_p·δ_g: l ↦ δ_g(h_l·h_p) (ω)
    moved = regular_action_table(h, not ups).sparse_columns()

    def combine(terms):
        return tuple(combine_columns(ring, terms))

    @cache
    def moved_star(p, q):
        return [combine([(star[l * rH + q], m) for l, m in moved[g * rH + p]])
                for g in range(rH)]

    def per_g(weights):
        """Σ w·(δ_g·h_p)⋆δ_q (υ), resp. w·(h_p·δ_g)⋆δ_q (ω), over the terms
        w·h_p⊗δ_q of ``weights``, for each g."""
        return [combine([(moved_star(*divmod(pos, rH))[g], w) for pos, w in weights])
                for g in range(rH)]

    def tensor_product(u, v, flip):
        """u·v in H⊗H*, the H-factors multiplied in reverse order if ``flip``."""
        pairs = []
        for x, cx in u:
            p1, q1 = divmod(x, rH)
            for y, cy in v:
                p2, q2 = divmod(y, rH)
                hcol = mcols[p2 * rH + p1] if flip else mcols[p1 * rH + p2]
                pairs.append((kron_column(hcol, star[q1 * rH + q2], rH, mul), mul(cx, cy)))
        return combine(pairs)

    def add(check, statement, cases):
        wit = next((wit for wit, lhs, rhs in cases if lhs != rhs), None)
        rep.add(f"{tag}.{check}", statement, wit is None, wit)

    # (1-a): f⋆g = Σ (g·f₍₋₁₎)⋆f₍₀₎ (υ), resp. Σ (f₍₋₁₎·g)⋆f₍₀₎ (ω)
    add("1a", "f⋆g matches the coaction expansion for all basis pairs",
        ((f"(f{i},g{g})", tuple(star[i * rH + g]), rhs)
         for i in range(rH) for g, rhs in enumerate(per_g(cm[i]))))

    # (1-b): h↼f = Σ f₍₋₁₎(f₍₀₎⇀h) (upsilon) or Σ (f₍₀₎⇀h)f₍₋₁₎ (omega)
    def case_1b():
        for i in range(rH):
            for t in range(rH):
                rhs = []
                for pos, c in cm[i]:
                    p, q = divmod(pos, rH)
                    rhs += [(mcols[p * rH + k] if ups else mcols[k * rH + p], mul(c, ck))
                            for k, ck in hit[q][t]]
                yield f"(f{i},h{t})", tuple(lead[i][t]), combine(rhs)

    add("1b", "h↼f matches the coaction expansion on all basis elements", case_1b())

    # (1-c): the characterizing identity at each h_t, apart from the table's
    # builder: defining[t][i] = Σ h₃S̄(h₁) (υ) resp. S(h₁)h₃ (ω) over the
    # legs of Δ²(h_t) with h₂ = h_i, summed with AlgebraData.product
    anti_col = (h.twisted_antipode if ups else h.antipode).column
    basis = b.carrier.basis_vector
    defining = [[[ring.zero] * rH for _ in range(rH)] for _ in range(rH)]
    for t in range(rH):
        for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
            v = (b.algebra.product(basis(h3), anti_col(h1)) if ups
                 else b.algebra.product(anti_col(h1), basis(h3)))
            acc = defining[t][h2]
            for p, x in enumerate(v):
                acc[p] = ring.add(acc[p], mul(c, x))

    add("1c", "the characterizing identity holds",
        ((f"(f{i},h{t})", [(p * rH + t, x) for p, x in enumerate(defining[t][i]) if x],
          [(pos, c) for pos, c in cm[i] if pos % rH == t])
         for i in range(rH) for t in range(rH)))

    # (3)
    if ups:
        # (f⋆f̃)⋆g = Σ (g·(f̃₍₋₁₎f₍₋₁₎)) ⋆ (f₍₀₎⋆f̃₍₀₎)
        add("3", "(f⋆f̃)⋆g matches the double-coaction expansion",
            ((f"(f{i},f{j},g{g})",
              combine([(star[l * rH + g], x) for l, x in star[i * rH + j]]), rhs)
             for i in range(rH) for j in range(rH)
             for g, rhs in enumerate(per_g(tensor_product(cm[i], cm[j], True)))))
    else:
        # ω is an algebra morphism into H⊗H*, unital and multiplicative
        ok = all(combine([(cm[t], x) for t, x in star[i * rH + j]])
                 == tensor_product(cm[i], cm[j], False)
                 for i in range(rH) for j in range(rH))
        eps_vec = b.coalgebra.counit_values()
        ok = ok and cmap.apply(eps_vec) == kron_vec(ring, b.algebra.unit, eps_vec)
        rep.add(f"{tag}.3", "the coaction is an algebra morphism (H^ω is a "
                "left H-comodule algebra)", ok, None if ok else "multiplicativity")

    # (4): the right/left H-module formula, with
    # S̄(h₃)f₍₋₁₎h₁ ⊗ f₍₀₎h₂ (υ), resp. h₁f₍₋₁₎S(h₃) ⊗ h₂f₍₀₎ (ω)
    anti = (h.twisted_antipode if ups else h.antipode).sparse_columns()
    hpart = cache(lambda h3, p, h1: hprod(hprod(anti[h3], e[p]), e[h1]) if ups
                  else hprod(hprod(e[h1], e[p]), anti[h3]))

    def case_4():
        for i in range(rH):
            for t in range(rH):
                rhs = []
                for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
                    for pos, cc in cm[i]:
                        p, q = divmod(pos, rH)
                        rhs.append((kron_column(hpart(h3, p, h1), moved[q * rH + h2], rH,
                                                mul), mul(c, cc)))
                yield (f"(f{i},h{t})", combine([(cm[l], x) for l, x in moved[i * rH + t]]),
                       combine(rhs))

    add("4", "the module-compatibility formula for the coaction holds", case_4())
    return rep


def coaction_preimage_of_U(table: CoactionTable, hopf: HopfData,
                           U: SubalgebraU):
    """V := coaction⁻¹(H ⊗ span(U)) as canonical sparse functionals: the
    f-parts of the kernel of [cmap | -G], G the generators h_i⊗u, whose
    columns are those of the coaction and the negated h_i⊗u.  The kernel is
    a canonical span (reduced echelon or Hermite rows, mod n over Z/n) with
    the f-coordinates first, so its rows that do not vanish there, cut to
    them, are the canonical span of the f-parts."""
    b = hopf.bialgebra
    ring = b.ring
    rH = b.rank
    cols = list(table.map.sparse_columns())
    cols += [tuple((i * rH + p, ring.neg(x)) for p, x in u)
             for i in range(rH) for u in U.elements]
    kernel = PreparedSolver(ring, cols, rH * rH).kernel()
    return [f for f in (tuple((i, x) for i, x in v if i < rH) for v in kernel) if f]


# ---------------------------------------------------------------------------
# theorem routes


def coefficient_space_of_action(action: WeakActionData):
    """Cf(A) ⊆ H* for the finite-rank comodule structure induced by a module
    action: the nonzero functionals h ↦ coeff_k(h⇀a_j), in (j, k) order, as
    canonical sparse functionals read off the action's sparse columns."""
    rA = action.algebra.rank
    coeffs = {}
    for pos, col in enumerate(action.action.sparse_columns()):
        i, j = divmod(pos, rA)
        for k, x in col:
            coeffs.setdefault((j, k), []).append((i, x))
    return [tuple(coeffs[key]) for key in sorted(coeffs)]


def bm_route_hypotheses(cp: CrossedProductData, U: SubalgebraU, lam_coords,
                        maps) -> ValidationReport:
    """The trivial-cocycle specialization: V := Cf(A) ∪ S̄*(Cf(A)) satisfies
    the containments and the RL-condition.  ``lam_coords`` is λ's
    factorization, ``maps`` the right-side (φ, ψ) of ``cp``."""
    rep = ValidationReport("Blattner-Montgomery route")
    cf = coefficient_space_of_action(cp.action)
    sbar = cp.action.hopf.twisted_antipode
    dual = dual_module(sbar.domain)
    compose_sbar = linear(cp.ring, transpose(sbar, dual, dual))  # v ↦ v∘S̄
    V = cf + [compose_sbar(v) for v in cf]
    compat = compat_check(cp, U, lam_coords, V, DiagramSide.RIGHT, maps)
    rep.add("bm.phi", "φ(H⊗A) ⊆ J(A⊗V) for V from the coefficient space",
            compat.phi_contained, compat.phi_witness)
    rep.add("bm.psi", "ψ(H⊗A) ⊆ J(A⊗V)", compat.psi_contained, compat.psi_witness)
    rep.add("bm.rl", "(V,U) satisfies the RL-condition", compat.rl.ok)
    return rep


@dataclass
class ChainResult:
    iso: AlgebraIso
    equal_to_direct: bool
    report: ValidationReport


def final_chain(cp: CrossedProductData, U: SubalgebraU, opp: OppositeCrossed,
                direct: AlgebraIso, h_smash: AlgebraData) -> ChainResult:
    """The four-step route through the opposite crossed product:

    (A#σH)#U ≅ ((A^op#τH^op)#^opU^cop)^op ≅ (A^op⊗(H^op#^opU^cop))^op
             ≅ A⊗(H^op#^opU^cop)^op ≅ A⊗(H#U)

    Steps 1, 3 and 4 are structure-constant identities on fixed carriers; the
    only nontrivial matrix is the op-side duality isomorphism of the opposite
    crossed product, conjugated by the certified comodule-algebra iso.
    ``opp`` is ``opposite_crossed(cp)``; ``direct`` is the certified
    right-side duality isomorphism of ``cp`` for ``U``, whose source and
    target the composite connects and whose matrix it must equal, and
    ``h_smash`` is the H#U it was built with.
    """
    rep = ValidationReport("opposite-route chain")
    A = cp.action.algebra
    hop = opp.crossed.action.hopf
    u_cop = SubalgebraU(hop, U.elements, ModuleSide.LEFT)

    # step 1 (generic part): B#U and (B^op#^opU^cop)^op have equal tables
    b_op_alg = cp.product_algebra.opposite()
    b_op_com = ComoduleAlgebraData(hop, b_op_alg, cp.comodule.coaction)
    lhs = direct.source
    rhs = op_smash(b_op_com, u_cop).opposite()
    rep.add("chain.step1", "B#U = (B^op#^opU^cop)^op as structure constants",
            lhs.mult == rhs.mult and lhs.unit == rhs.unit)

    # step 1 (instance part): transport along the certified iso G⁻¹: B^op → A^op#τH^op
    g_inv = opp.iso.inverse  # A#σH → (A^op#τH^op)^op, same matrix B^op → C
    step1 = kron(g_inv, LinearMap.identity(U.module))

    # step 2: the op-side duality isomorphism of the opposite crossed product
    b_op_smash = op_smash(opp.crossed.comodule, u_cop)
    h_op_smash = op_smash(regular_comodule(hop), u_cop)
    lam = lambda_map(hop, u_cop)
    diag_op = build_diagram(opp.crossed, u_cop, DiagramSide.OP, b_op_smash,
                            h_op_smash, lam)
    step2 = duality_iso(diag_op, PreparedSolver(hop.ring, lam.sparse_columns(),
                                                lam.codomain.rank).solve)

    # step 3: (A^op ⊗ W)^op = A ⊗ W^op bit-identically
    w_alg = diag_op.tensor_target  # A^op⊗(H^op#^opU^cop)
    w_op = tensor_algebra(A, h_op_smash.opposite())
    rep.add("chain.step3", "(A^op⊗W)^op = A⊗W^op as structure constants",
            w_alg.opposite().mult == w_op.mult)

    # step 4: (H^op#^opU^cop)^op = H#U bit-identically
    rep.add("chain.step4", "(H^op#^opU^cop)^op = H#U as structure constants",
            h_op_smash.opposite().mult == h_smash.mult
            and h_op_smash.opposite().unit == h_smash.unit)

    target = direct.target  # A⊗(H#U)
    iso = certify_algebra_iso(lhs, target, step2.map @ step1, "chain composite")
    equal = direct.map == iso.map
    rep.add("chain.certified", "the four-step composite is a certified "
            "isomorphism (A#σH)#U ≅ A⊗(H#U)", True)
    rep.add("chain.vs_direct", "the composite equals the direct duality "
            "isomorphism as a matrix", equal)
    return ChainResult(iso, equal, rep)


def theorem_suite(cp: CrossedProductData, u: Callable[[DiagramSide], SubalgebraU],
                  lam_coords: Callable[[DiagramSide], Callable],
                  certified_iso: Callable[[DiagramSide], AlgebraIso],
                  V=None) -> ValidationReport:
    """Run both duality theorems, and the trivial-cocycle corollary route
    when σ is trivial, on a crossed product.

    Per side, ``u(side)`` is U as a right (op: left) H-module subalgebra,
    ``lam_coords(side)`` the ``solve`` of one :class:`PreparedSolver` of λ
    (op: λ̄) for it, which the RL-condition reads, and ``certified_iso(side)``
    the certified duality isomorphism of ``cp`` for it, asked for only once
    that side's hypotheses hold.  Hypothesis checks use V = coaction⁻¹(H⊗U)
    per side, of υ on the right and ω on the op side, unless an explicit V
    is supplied (canonical sparse functionals).  A side whose compatibility
    fails ends the suite there: its record fails, the report is returned,
    and no isomorphism is certified for that side.  The cleft and
    opposite-product routes are the ``cleft`` and ``opposite`` suites.
    """
    rep = ValidationReport("theorem suite")
    h = cp.action.hopf
    for side, coaction, iso in (
            (DiagramSide.RIGHT, CoactionSide.UPSILON, "(A#σH)#U ≅ A⊗(H#U)"),
            (DiagramSide.OP, CoactionSide.OMEGA, "(A#σH)#^opU ≅ A⊗(H#^opU)")):
        table = coaction_table(h, coaction)
        rep.extend(table.report)
        U = u(side)
        V_side = V if V is not None else coaction_preimage_of_U(table, h, U)
        compat = compat_check(cp, U, lam_coords(side), V_side, side)
        rep.add(f"{side.value}.compat", f"(V,U) is compatible on the "
                f"{side.value} side", compat.ok, compat.phi_witness or compat.psi_witness)
        if not compat.ok:
            return rep
        certified_iso(side)
        rep.add(f"{side.value}.duality", f"{iso} certified", True)
        if side is DiagramSide.RIGHT:
            right_maps = compat.maps

    # the trivial-cocycle corollary route
    if cp.cocycle.sigma == trivial_sigma(cp.action):
        rep.extend(bm_route_hypotheses(cp, u(DiagramSide.RIGHT),
                                       lam_coords(DiagramSide.RIGHT), right_maps))
    return rep
