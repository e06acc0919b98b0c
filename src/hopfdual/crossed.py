"""Crossed products A#_σH, cocycle validation, cleft extensions, opposites.

The crossed multiplication is (a#h)(ã#h̃) = Σ a(h₁ã)σ(h₂⊗h̃₁) # h₃h̃₂.  A
normal σ gives the unit 1#1; together with the cocycle and twisted-module
conditions it gives associativity, and both directions of that equivalence
are enforced as cross-checks whenever a product is built.

The crossed table and the three cocycle flags are built by index arithmetic
on the sparse tables of H, A, the action and σ, each factor once per
leg-index key and each Sweedler pair of (h, k) once per pair.  Every sum drops
the terms whose σ factor is the zero column before expanding them: that uses
only bilinearity, not the coassociativity or multiplicativity these checks
certify.  ``smash.left_smash`` checks the twisted-module identity alone.

The cleft layer hands elements on as canonical sparse vectors too: θ⁻¹ of
θ(h) = 1#h, the extracted action and σ, the cleft maps φ̃, ψ̃ and the
opposite product's G multiply factors read off the sparse tables with
``linalg.bilinear`` and ``linalg.linear``, and the coinvariants answer
membership in sparse coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Optional

from .actions import (
    ComoduleAlgebraData,
    Coinvariants,
    WeakActionData,
    coinvariants,
    validate_weak_action,
)
from .errors import (
    AssociativityMismatch,
    CoinvariantEscape,
    NotConvInvertible,
    NotUnital,
    ValidationError,
)
from .hopf import (
    AlgebraData,
    AlgebraIso,
    certify_algebra_iso,
    convolution_invert,
    convolve,
    opposite_hopf,
    tensor_coalgebra,
)
from .linalg import (
    LinearMap,
    PreparedSolver,
    bilinear,
    combine_columns,
    hom_module,
    hom_scatter,
    kron,
    kron_column,
    kron_vec,
    linear,
    sparse_column,
    sparse_vector,
    tensor_module,
    unit_vectors,
)
from .reporting import ValidationReport


@dataclass(frozen=True)
class CocycleFlags:
    normal: bool
    cocycle: bool
    twisted_module: bool

    @property
    def all_true(self) -> bool:
        return self.normal and self.cocycle and self.twisted_module


class CocycleData:
    """σ: H⊗H → A with its two-sided convolution inverse and exact flags."""

    def __init__(self, action: WeakActionData, sigma: LinearMap,
                 sigma_inv: LinearMap, flags: CocycleFlags):
        self.action = action
        self.sigma = sigma
        self.sigma_inv = sigma_inv
        self.flags = flags


def _tables(action: WeakActionData, sigma: LinearMap):
    """The ranks of H and A and the sparse columns the crossed-product
    formulas read: h_p·h_q, a_p·a_q, h_p·a_q and σ(h_p⊗h_q)."""
    b = action.bialgebra
    return (b.rank, action.algebra.rank, b.algebra.mult.sparse_columns(),
            action.algebra.mult.sparse_columns(), action.action.sparse_columns(),
            sigma.sparse_columns())


def _sum_of_products(ring, amul, rA, triples):
    """Σ c·(u·v) over (c, u, v) in ``triples``, u and v sparse in an algebra
    of rank ``rA`` with the sparse multiplication table ``amul`` (A, or B in
    a cleft extraction): a sparse vector."""
    mul = ring.mul
    return combine_columns(ring, ((amul[p * rA + q], mul(c, mul(a, b)))
                                  for c, u, v in triples for p, a in u for q, b in v))


def _sweedler_pairs(coalg, i, j):
    """(c·c', h₁, h₂, k₁, k₂) over Δ(h_i) = Σ c·h₁⊗h₂ and Δ(h_j) = Σ c'·k₁⊗k₂."""
    mul = coalg.ring.mul
    return [(mul(ch, ck), h1, h2, k1, k2) for ch, (h1, h2) in coalg.sweedler_basis(i, 2)
            for ck, (k1, k2) in coalg.sweedler_basis(j, 2)]


def _live_legs(coalg, sig, rH):
    """Per (x, l), the legs (c, l₁, l₂) of Δ(h_l) = Σ c·l₁⊗l₂ with
    σ(h_x⊗l₁) ≠ 0.  A term whose σ factor is the zero column is zero, so the
    sums below skip the others by bilinearity alone."""
    expansions = [coalg.sweedler_basis(l, 2) for l in range(rH)]
    return [[[(c, l1, l2) for c, (l1, l2) in terms if sig[x * rH + l1]]
             for terms in expansions] for x in range(rH)]


def cocycle_flags(action: WeakActionData, sigma: LinearMap) -> CocycleFlags:
    """Exact exhaustive evaluation of normality, the cocycle identity on all
    basis triples (h,k,l), and the twisted-module identity on all (h,k,a),
    by index arithmetic on the sparse tables: h₁·σ(k₁⊗l₁), σ(h₂⊗k₂l₂) and
    σ(h₂k₂⊗l) are computed once per leg-index key, the Sweedler pairs of
    (h, k) once per pair, and the terms with a zero σ(k₁⊗l₁) or σ(h₁⊗k₁)
    factor are skipped."""
    b = action.bialgebra
    ring, coalg = action.ring, b.coalgebra
    rH, rA, hmul, amul, act, sig = _tables(action, sigma)
    eps = coalg.counit_values()
    one_h = sparse_vector(b.algebra.unit)
    one_a = sparse_vector(action.algebra.unit)
    normal = all(
        combine_columns(ring, ((sig[i * rH + q], c) for q, c in one_h))
        == combine_columns(ring, [(one_a, eps[i])])
        == combine_columns(ring, ((sig[q * rH + i], c) for q, c in one_h))
        for i in range(rH))

    @cache
    def h_sigma(h1, k1, l1):  # h₁·σ(k₁⊗l₁)
        return combine_columns(ring, ((act[h1 * rA + s], c) for s, c in sig[k1 * rH + l1]))

    @cache
    def sigma_h_kl(h2, k2, l2):  # σ(h₂⊗k₂l₂)
        return combine_columns(ring, ((sig[h2 * rH + x], c) for x, c in hmul[k2 * rH + l2]))

    @cache
    def sigma_hk_l(h2, k2, l):  # σ(h₂k₂⊗l)
        return combine_columns(ring, ((sig[x * rH + l], c) for x, c in hmul[h2 * rH + k2]))

    live = _live_legs(coalg, sig, rH)

    def holds(i, j):  # at (h_i, h_j, h_l) for every l
        # Σ [h₁σ(k₁⊗l₁)]·σ(h₂⊗k₂l₂) = Σ σ(h₁⊗k₁)·σ(h₂k₂⊗l)
        pairs = _sweedler_pairs(coalg, i, j)
        right = [(c, sig[h1 * rH + k1], h2, k2) for c, h1, h2, k1, k2 in pairs
                 if sig[h1 * rH + k1]]
        return all(
            _sum_of_products(ring, amul, rA, (
                (ring.mul(c, cl), h_sigma(h1, k1, l1), sigma_h_kl(h2, k2, l2))
                for c, h1, h2, k1, k2 in pairs for cl, l1, l2 in live[k1][k]))
            == _sum_of_products(ring, amul, rA, (
                (c, s, sigma_hk_l(h2, k2, k)) for c, s, h2, k2 in right))
            for k in range(rH))

    cocycle_ok = all(holds(i, j) for i, j in product(range(rH), repeat=2))
    return CocycleFlags(normal, cocycle_ok, twisted_module_identity(action, sigma))


def twisted_module_identity(action: WeakActionData, sigma: LinearMap) -> bool:
    """Σ h₁·(k₁·a)·σ(h₂⊗k₂) = Σ σ(h₁⊗k₁)·((h₂k₂)·a) on every basis (h, k, a),
    in that order, up to the first failure; h₁·(k₁·a) and (h₂k₂)·a are
    computed once per leg-index key from the sparse tables, and the Sweedler
    pairs of (h, k) once per pair, each side without the pairs whose σ factor
    is the zero column."""
    ring = action.ring
    rH, rA, hmul, amul, act, sig = _tables(action, sigma)

    @cache
    def h_k_a(h1, k1, t):  # h₁·(k₁·a_t)
        return combine_columns(ring, ((act[h1 * rA + s], c) for s, c in act[k1 * rA + t]))

    @cache
    def hk_a(h2, k2, t):  # (h₂k₂)·a_t
        return combine_columns(ring, ((act[x * rA + t], c) for x, c in hmul[h2 * rH + k2]))

    for i, j in product(range(rH), repeat=2):
        pairs = _sweedler_pairs(action.bialgebra.coalgebra, i, j)
        left = [(c, h1, k1, sig[h2 * rH + k2]) for c, h1, h2, k1, k2 in pairs
                if sig[h2 * rH + k2]]
        right = [(c, sig[h1 * rH + k1], h2, k2) for c, h1, h2, k1, k2 in pairs
                 if sig[h1 * rH + k1]]
        for t in range(rA):
            lhs = _sum_of_products(ring, amul, rA, (
                (c, h_k_a(h1, k1, t), s) for c, h1, k1, s in left))
            rhs = _sum_of_products(ring, amul, rA, (
                (c, s, hk_a(h2, k2, t)) for c, s, h2, k2 in right))
            if lhs != rhs:
                return False
    return True


def validate_cocycle(action: WeakActionData, sigma: LinearMap,
                     claimed_inverse: Optional[LinearMap] = None) -> CocycleData:
    """Flags by exact expansion, σ⁻¹ by convolution inversion over H⊗H.

    A supplied inverse is never trusted: it is recomputed and compared.  When
    σ has no convolution inverse the flags are still computed and attached to
    the raised error.
    """
    b = action.bialgebra
    flags = cocycle_flags(action, sigma)
    hh = tensor_coalgebra(b.coalgebra, b.coalgebra)
    try:
        sigma_inv = convolution_invert(hh, action.algebra, sigma)
    except NotConvInvertible as exc:
        exc.flags = flags
        raise
    if claimed_inverse is not None and claimed_inverse != sigma_inv:
        raise ValidationError("supplied cocycle inverse disagrees with the "
                              "recomputed convolution inverse")
    return CocycleData(action, sigma, sigma_inv, flags)


def trivial_sigma(action: WeakActionData) -> LinearMap:
    """σ = η_A∘(ε⊗ε): H⊗H → A, h⊗k ↦ ε(h)ε(k)1_A, not validated."""
    b, ring = action.bialgebra, action.ring
    one_a = sparse_vector(action.algebra.unit)
    eps = b.coalgebra.counit_values()
    cols = [combine_columns(ring, [(one_a, ring.mul(x, y))]) for x in eps for y in eps]
    return LinearMap.from_sparse_columns(tensor_module(b.carrier, b.carrier),
                                         action.algebra.carrier, cols)


def trivial_cocycle(action: WeakActionData) -> CocycleData:
    """σ(h⊗k) = ε(h)ε(k)1_A, its own convolution inverse."""
    return validate_cocycle(action, trivial_sigma(action))


# ---------------------------------------------------------------------------
# the crossed product


def crossed_table(action: WeakActionData, sigma: LinearMap) -> LinearMap:
    """The (not necessarily associative or unital) product on A⊗H given by
    (a#h)(ã#h̃) = Σ a(h₁ã)σ(h₂⊗h̃₁) # h₃h̃₂.

    By index arithmetic: per (h, h̃) the terms Σ c·σ(h₂⊗h̃₁)⊗h₃h̃₂ with
    σ(h₂⊗h̃₁) ≠ 0 are summed once per h₁ into an element of A⊗H, and a(h₁ã)
    once per (a, h₁, ã); each column multiplies the two with A-products read
    off the sparse table."""
    b = action.bialgebra
    ring = action.ring
    zero, mul, add = ring.zero, ring.mul, ring.add
    rH, rA, hmul, amul, act, sig = _tables(action, sigma)
    carrier = tensor_module(action.algebra.carrier, b.carrier)

    live = _live_legs(b.coalgebra, sig, rH)

    def terms(j, l):  # h₁ ↦ Σ c·σ(h₂⊗l₁)⊗h₃l₂ as (a-index, h-index, coefficient)
        by_h1 = {}
        for ch, (h1, h2, h3) in b.coalgebra.sweedler_basis(j, 3):
            for cl, l1, l2 in live[h2][l]:
                by_h1.setdefault(h1, []).append((kron_column(
                    sig[h2 * rH + l1], hmul[h3 * rH + l2], rH, mul), mul(ch, cl)))
        return [(h1, [(*divmod(pos, rH), v) for pos, v in combine_columns(ring, t)])
                for h1, t in by_h1.items()]

    @cache
    def a_h_a(i, h1, k):  # a_i·(h₁·a_k)
        return combine_columns(ring, ((amul[i * rA + s], c) for s, c in act[h1 * rA + k]))

    table = [[terms(j, l) for l in range(rH)] for j in range(rH)]
    cols = []
    for i, j, k, l in product(range(rA), range(rH), range(rA), range(rH)):
        acc = {}
        for h1, w in table[j][l]:
            for p, a in a_h_a(i, h1, k):
                for s, x, v in w:
                    av = mul(a, v)
                    for t, m in amul[p * rA + s]:
                        pos = t * rH + x
                        acc[pos] = add(acc.get(pos, zero), mul(m, av))
        cols.append(sparse_column(acc))
    return LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)


def _checked_crossed_table(action: WeakActionData, sigma: LinearMap):
    """The crossed table as an algebra on A⊗H with the candidate unit 1#1,
    and (unit holds, associativity holds) by exhaustive basis checking."""
    table = crossed_table(action, sigma)
    unit = kron_vec(action.ring, action.algebra.unit, action.bialgebra.algebra.unit)
    alg = AlgebraData(table.codomain, table, unit)
    by_id = {r.check_id: r.passed for r in alg.validate("crossed table").records}
    return alg, by_id["algebra.unit"], by_id["algebra.assoc"]


def direct_product_checks(action: WeakActionData, sigma: LinearMap):
    """(unit holds, associativity holds) for the raw crossed table, by
    exhaustive basis checking — independent of the cocycle flags."""
    return _checked_crossed_table(action, sigma)[1:]


class CrossedProductData:
    """A right H-crossed product: validated algebra on A⊗H with coaction id⊗Δ."""

    def __init__(self, action: WeakActionData, cocycle: CocycleData,
                 product_algebra: AlgebraData, comodule: ComoduleAlgebraData):
        self.action = action
        self.cocycle = cocycle
        self.product_algebra = product_algebra
        self.comodule = comodule

    @property
    def ring(self):
        return self.action.ring

    @property
    def carrier(self):
        return self.product_algebra.carrier


def build_crossed_product(action: WeakActionData, cocycle: CocycleData) -> CrossedProductData:
    """Build A#_σH, enforcing both directions of the unit/associativity
    criterion against the cocycle flags."""
    flags = cocycle.flags
    if not flags.normal:
        raise NotUnital("σ is not normal, so 1#1 is not a unit")
    alg, unit_ok, assoc_ok = _checked_crossed_table(action, cocycle.sigma)
    if unit_ok != flags.normal:
        raise AssociativityMismatch("unit check disagrees with normality flag")
    if assoc_ok != (flags.cocycle and flags.twisted_module):
        raise AssociativityMismatch(
            "associativity check disagrees with cocycle+twisted-module flags")
    if not assoc_ok:
        raise ValidationError("crossed product is not associative "
                              "(cocycle or twisted-module condition fails)")
    b = action.bialgebra
    coaction = kron(LinearMap.identity(action.algebra.carrier), b.coalgebra.comult)
    comodule = ComoduleAlgebraData(action.hopf, alg, coaction)
    comodule.validate().require()
    cp = CrossedProductData(action, cocycle, alg, comodule)
    mismatch = coefficient_mismatch(cp, coinvariants(cp.comodule))
    if mismatch:
        raise ValidationError(mismatch)
    return cp


def coefficient_mismatch(cp: CrossedProductData, coin: Coinvariants) -> Optional[str]:
    """None when the coinvariants ``coin`` of A#_σH span exactly A⊗1, by
    membership in both directions; otherwise the inclusion that fails.
    ``build_crossed_product`` raises it, the crossed suite records it."""
    b = cp.action.bialgebra
    ring = cp.ring
    one_h = sparse_vector(b.algebra.unit)
    expected = [kron_column(a, one_h, b.rank, ring.mul)
                for a in unit_vectors(ring, cp.action.algebra.rank)]
    in_coin = coin.coordinates
    if any(in_coin(v) is None for v in expected):
        return "A⊗1 not contained in the coinvariants"
    in_expected = PreparedSolver(ring, expected, cp.carrier.rank).solve
    if any(in_expected(v) is None for v in coin.vectors):
        return "coinvariants leak outside A⊗1"
    return None


def smash_product_data(action: WeakActionData) -> CrossedProductData:
    """A#H: the crossed product with trivial cocycle."""
    return build_crossed_product(action, trivial_cocycle(action))


# ---------------------------------------------------------------------------
# cleft extensions


class CleftData:
    """A cleft right H-extension: a comodule algebra with an invertible,
    colinear total integral θ: H → B."""

    def __init__(self, comodule_algebra: ComoduleAlgebraData, theta: LinearMap,
                 theta_inv: LinearMap):
        self.comodule_algebra = comodule_algebra
        self.theta = theta
        self.theta_inv = theta_inv

    def validate(self, subject: str = "cleft data") -> ValidationReport:
        rep = ValidationReport(subject)
        B = self.comodule_algebra.algebra
        b = self.comodule_algebra.bialgebra
        colinear = (self.comodule_algebra.coaction @ self.theta) == \
            (kron(self.theta, LinearMap.identity(b.carrier)) @ b.coalgebra.comult)
        rep.add("cleft.colinear", "ϱ∘θ = (θ⊗id)∘Δ", colinear)
        rep.add("cleft.unital", "θ(1_H) = 1_B",
                self.theta.apply(b.algebra.unit) == B.unit)
        unit = B.unit_map() @ b.coalgebra.counit
        two_sided = (convolve(b.coalgebra, B, self.theta, self.theta_inv) == unit
                     and convolve(b.coalgebra, B, self.theta_inv, self.theta) == unit)
        rep.add("cleft.invertible", "θ⋆θ⁻¹ = η∘ε = θ⁻¹⋆θ", two_sided)
        return rep


def integral_from_crossed(cp: CrossedProductData) -> CleftData:
    """θ(h) = 1_A#h with θ⁻¹(h) = Σ σ⁻¹(S(h₂)⊗h₃) #_σ S(h₁), each term read
    off the sparse columns of σ⁻¹ and S.  Not validated: the cleft suite
    records ``CleftData.validate``, so a σ⁻¹ that is not the convolution
    inverse of σ fails ``cleft.invertible`` there."""
    hopf = cp.action.hopf
    b = hopf.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH = b.rank
    S = hopf.antipode.sparse_columns()
    sinv = cp.cocycle.sigma_inv.sparse_columns()
    one_a = sparse_vector(A.unit)
    theta = LinearMap.from_sparse_columns(b.carrier, cp.carrier,
                                          [[(p * rH + j, x) for p, x in one_a]
                                           for j in range(rH)])

    def term(h1, h2, h3):  # σ⁻¹(S(h₂)⊗h₃) ⊗ S(h₁)
        apart = combine_columns(ring, ((sinv[x * rH + h3], s) for x, s in S[h2]))
        return kron_column(apart, S[h1], rH, ring.mul)

    inv_cols = [combine_columns(ring, ((term(*legs), c) for c, legs
                                       in b.coalgebra.sweedler_basis(j, 3)))
                for j in range(rH)]
    theta_inv = LinearMap.from_sparse_columns(b.carrier, cp.carrier, inv_cols)
    return CleftData(cp.comodule, theta, theta_inv)


@dataclass
class CleftExtraction:
    crossed: CrossedProductData
    iso: AlgebraIso  # A#_σH → B, a#h ↦ ι(a)·θ(h)
    coinvariants: Coinvariants
    colinear: bool


def crossed_from_integral(cl: CleftData) -> CleftExtraction:
    """Extract (action, σ) via ha = Σθ(h₁)aθ⁻¹(h₂), σ(h⊗k) = Σθ(h₁)θ(k₁)θ⁻¹(h₂k₂),
    rebuild A#_σH, and certify B ≅ A#_σH."""
    B_com = cl.comodule_algebra
    B = B_com.algebra
    b = B_com.bialgebra
    ring = B.ring
    rH = b.rank
    coin = coinvariants(B_com)
    coordinates = coin.coordinates

    def express(vec, what):
        coords = coordinates(vec)
        if coords is None:
            raise CoinvariantEscape(f"{what} does not lie in the coinvariants")
        return coords

    rA, rB = coin.rank, B.rank
    a_s = coin.vectors
    bmul = B.mult.sparse_columns()
    bprod = bilinear(ring, B.mult, rB)
    # A' as an abstract algebra on the coinvariant basis; its stored unit is
    # the dense form of 1_B's coordinates
    unit = dict(express(sparse_vector(B.unit), "1_B"))
    mult = LinearMap.from_sparse_columns(
        tensor_module(coin.module, coin.module), coin.module,
        [express(bprod(u, v), "a·a'") for u in a_s for v in a_s])
    A_alg = AlgebraData(coin.module, mult, [unit.get(i, ring.zero) for i in range(rA)])
    # the sums below are read off the sparse tables of B, H, θ and θ⁻¹
    theta, theta_inv = cl.theta.sparse_columns(), cl.theta_inv.sparse_columns()
    # action ha = Σ θ(h₁) a θ⁻¹(h₂)
    theta_a = cache(lambda h1, j: bprod(theta[h1], a_s[j]))
    act_cols = []
    for i in range(rH):
        for j in range(rA):
            val = _sum_of_products(ring, bmul, rB, (
                (c, theta_a(h1, j), theta_inv[h2])
                for c, (h1, h2) in b.coalgebra.sweedler_basis(i, 2)))
            act_cols.append(express(val, "h⇀a"))
    action_map = LinearMap.from_sparse_columns(tensor_module(b.carrier, coin.module),
                                               coin.module, act_cols)
    action = WeakActionData(B_com.hopf, A_alg, action_map)
    validate_weak_action(action).require()
    # σ(h⊗k) = Σ θ(h₁)θ(k₁)θ⁻¹(h₂k₂)
    hmul = b.algebra.mult.sparse_columns()
    theta_theta = cache(lambda h1, k1: bprod(theta[h1], theta[k1]))
    theta_inv_of = linear(ring, cl.theta_inv)
    theta_inv_hk = cache(lambda h2, k2: theta_inv_of(hmul[h2 * rH + k2]))
    sig_cols = []
    for i in range(rH):
        for j in range(rH):
            val = _sum_of_products(ring, bmul, rB, (
                (c, theta_theta(h1, k1), theta_inv_hk(h2, k2))
                for c, h1, h2, k1, k2 in _sweedler_pairs(b.coalgebra, i, j)))
            sig_cols.append(express(val, "σ(h⊗k)"))
    sigma = LinearMap.from_sparse_columns(tensor_module(b.carrier, b.carrier),
                                          coin.module, sig_cols)
    cocycle = validate_cocycle(action, sigma)
    if not cocycle.flags.all_true:
        raise ValidationError("extracted cocycle fails its flags")
    crossed = build_crossed_product(action, cocycle)
    # certified iso A#_σH → B, a#h ↦ ι(a)θ(h)
    iso_cols = [bprod(a_s[i], theta[j]) for i in range(rA) for j in range(rH)]
    iso_map = LinearMap.from_sparse_columns(crossed.carrier, B.carrier, iso_cols)
    iso = certify_algebra_iso(crossed.product_algebra, B, iso_map,
                              "cleft extension ≅ crossed product")
    colinear = (B_com.coaction @ iso_map) == \
        (kron(iso_map, LinearMap.identity(b.carrier)) @ crossed.comodule.coaction)
    return CleftExtraction(crossed, iso, coin, colinear)


# ---------------------------------------------------------------------------
# the opposite crossed product


@dataclass
class OppositeCrossed:
    crossed: CrossedProductData          # A^op #_τ H^op
    tau: CocycleData
    iso: AlgebraIso                      # (A^op#_τH^op)^op → A#_σH
    opposite_algebra: AlgebraData        # (A^op#_τH^op)^op
    colinear: bool


def opposite_crossed(cp: CrossedProductData, cleft: CleftData) -> OppositeCrossed:
    """Build the H^op-crossed product on A^op with h·a := S̄(h)a and
    τ = σ⁻¹∘(S̄⊗S̄), and certify A#_σH ≅ (A^op#_τH^op)^op.  ``cleft`` is
    θ(h) = 1#h on ``cp``, ``integral_from_crossed(cp)``."""
    hopf = cp.action.hopf
    hop = opposite_hopf(hopf)
    A = cp.action.algebra
    ring = cp.ring
    Sbar = hopf.twisted_antipode
    a_op = A.opposite()
    action_op = WeakActionData(hop, a_op,
                               cp.action.action @ kron(Sbar, LinearMap.identity(A.carrier)))
    validate_weak_action(action_op, "opposite weak action").require()
    tau = validate_cocycle(action_op, cp.cocycle.sigma_inv @ kron(Sbar, Sbar))
    if not tau.flags.all_true:
        raise ValidationError("τ fails the cocycle flags")
    crossed_op = build_crossed_product(action_op, tau)
    y_alg = crossed_op.product_algebra.opposite()
    # G: (A^op#_τH^op)^op → A#_σH, a⊗h ↦ θ⁻¹(S̄(h))·(a#1)
    b = hopf.bialgebra
    one_h = sparse_vector(b.algebra.unit)
    bprod = bilinear(ring, cp.product_algebra.mult, cp.carrier.rank)
    theta_inv = linear(ring, cleft.theta_inv)
    theta_inv_sbar = [theta_inv(col) for col in Sbar.sparse_columns()]
    cols = [bprod(t, kron_column(a, one_h, b.rank, ring.mul))
            for a in unit_vectors(ring, A.rank) for t in theta_inv_sbar]
    g_map = LinearMap.from_sparse_columns(y_alg.carrier, cp.carrier, cols)
    iso = certify_algebra_iso(y_alg, cp.product_algebra, g_map,
                              "opposite crossed product")
    colinear = (cp.comodule.coaction @ g_map) == \
        (kron(g_map, LinearMap.identity(b.carrier)) @ crossed_op.comodule.coaction)
    return OppositeCrossed(crossed_op, tau, iso, y_alg, colinear)


# ---------------------------------------------------------------------------
# the two cleft compatibility maps


def cleft_maps(cl: CleftData):
    """φ̃, ψ̃: H⊗A → Hom(H, A) by direct expansion:

    φ̃(h⊗a)(h̃) = Σ θ(S̄(h̃₂)) a θ(h₁) θ⁻¹(S̄(h̃₁)h₂)
    ψ̃(h⊗a)(h̃) = Σ θ⁻¹(S̄(h̃₃)) a θ(S̄(h̃₂)h₁) θ⁻¹(h̃₄S̄(h̃₁)h₂)

    Each value is summed in B from the sparse tables of B, H, θ, θ⁻¹ and S̄,
    the part left of the last factor once per (h̃-legs, a, h₁) and the last
    factor once per leg-index key, and then expressed in the coinvariants.
    """
    B_com = cl.comodule_algebra
    B = B_com.algebra
    hopf = B_com.hopf
    b = hopf.bialgebra
    ring = B.ring
    rH, rB = b.rank, B.rank
    coin = coinvariants(B_com)
    rA = coin.rank
    coordinates = coin.coordinates
    bmul = B.mult.sparse_columns()
    bprod = bilinear(ring, B.mult, rB)
    hprod = bilinear(ring, b.algebra.mult, rH)
    e = unit_vectors(ring, rH)
    Sb = hopf.twisted_antipode.sparse_columns()
    a_s = coin.vectors
    theta, theta_of, theta_inv_of = (cl.theta.sparse_columns(), linear(ring, cl.theta),
                                     linear(ring, cl.theta_inv))
    phi_left = cache(lambda t2, j, h1: bprod(bprod(theta_of(Sb[t2]), a_s[j]), theta[h1]))
    phi_right = cache(lambda t1, h2: theta_inv_of(hprod(Sb[t1], e[h2])))
    psi_left = cache(lambda t2, t3, j, h1: bprod(
        bprod(theta_inv_of(Sb[t3]), a_s[j]), theta_of(hprod(Sb[t2], e[h1]))))
    psi_right = cache(lambda t1, t4, h2: theta_inv_of(hprod(hprod(e[t4], Sb[t1]), e[h2])))

    def phi(j, hl, tl):
        return phi_left(tl[1], j, hl[0]), phi_right(tl[0], hl[1])

    def psi(j, hl, tl):
        t1, t2, t3, t4 = tl
        return psi_left(t2, t3, j, hl[0]), psi_right(t1, t4, hl[1])

    dom = tensor_module(b.carrier, coin.module)
    hom = hom_module(b.carrier, coin.module)
    maps = []
    for legs, factors in ((2, phi), (4, psi)):
        expansions = [b.coalgebra.sweedler_basis(t, legs) for t in range(rH)]
        cols = []
        for i in range(rH):
            h_terms = b.coalgebra.sweedler_basis(i, 2)
            for j in range(rA):
                out = {}
                for t, terms in enumerate(expansions):
                    val = _sum_of_products(ring, bmul, rB, (
                        (ring.mul(ct, ch), *factors(j, hl, tl))
                        for ct, tl in terms for ch, hl in h_terms))
                    coords = coordinates(val)
                    if coords is None:
                        raise CoinvariantEscape("cleft map value escapes the coinvariants")
                    hom_scatter(out, ring, ring.one, coords, rH, t)
                cols.append(sparse_column(out))
        maps.append(LinearMap.from_sparse_columns(dom, hom, cols))
    return tuple(maps)
