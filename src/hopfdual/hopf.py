"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants.

Everything is finite free rank over an exact ring.  Sweedler expansion is
strictly left-nested: the n-fold comultiplication expands the first tensor
leg of the (n-1)-fold one.  Coassociativity (validated first) makes any other
nesting equal; fixing one makes formula transcription mechanical.

Every axiom check is index arithmetic on the sparse tables: each column of a
law (coassociativity, the counit laws, Δ and ε multiplicative, the antipode
identities and the anti-morphism checks) is summed over the legs c·h_p⊗h_q
of a Δ column (``linalg.legs``) from the sparse m, Δ, ε and S columns, and
compared column by column up to the first failure.  No Kronecker product,
composition or tensor algebra is built to check an axiom.

Convolution in Hom(C, A) takes and returns ``LinearMap``s: ``convolve`` sums
f(c_p)g(c_q) over the legs of each Δ column on A's sparse table, and
``convolution_invert`` writes the system x ↦ f⋆x as sparse columns by index
arithmetic, solves it for η∘ε once and checks the left inverse with
``convolve``.  The antipode and the twisted antipode are each one such
inversion of the identity.
"""
from __future__ import annotations

from itertools import product
from typing import Optional

from .errors import (
    DimensionMismatch,
    NotConvInvertible,
    RingMismatch,
    ValidationError,
)
from .linalg import (
    FreeModule,
    LinearMap,
    PreparedSolver,
    bilinear,
    certified,
    column_witness,
    combine_columns,
    dual_module,
    hom_module,
    hom_scatter,
    invert_map,
    kron,
    kron_column,
    kron_vec,
    legs,
    product_label,
    sparse_column,
    sparse_vector,
    tensor_module,
    transpose,
    unit_module,
    unit_vectors,
)
from .reporting import ValidationReport


class AlgebraData:
    """An associative unital algebra: carrier, multiplication map, unit vector."""

    def __init__(self, carrier: FreeModule, mult: LinearMap, unit):
        if mult.domain.rank != carrier.rank ** 2 or mult.codomain.rank != carrier.rank:
            raise DimensionMismatch("multiplication must map carrier⊗carrier to carrier")
        if mult.ring != carrier.ring:
            raise RingMismatch("multiplication ring differs from carrier ring")
        self.carrier = carrier
        self.mult = mult
        self.unit = carrier.vector(unit)

    @property
    def ring(self):
        return self.carrier.ring

    @property
    def rank(self):
        return self.carrier.rank

    def unit_map(self) -> LinearMap:
        """The ring embedding R → A, 1 ↦ 1_A."""
        return LinearMap.from_sparse_columns(unit_module(self.ring), self.carrier,
                                             [sparse_vector(self.unit)])

    def basis_product(self, i: int, j: int):
        """Sparse product of basis elements: list of (k, coefficient)."""
        return self.mult.sparse_columns()[i * self.rank + j]

    def product(self, u, v):
        # canonical elements: truthiness is the exact zero test
        ring = self.ring
        r = self.rank
        out = [ring.zero] * r
        cols = self.mult.sparse_columns()
        mul, add = ring.mul, ring.add
        for i, a in enumerate(u):
            if not a:
                continue
            base = i * r
            for j, b in enumerate(v):
                if not b:
                    continue
                col = cols[base + j]
                if not col:
                    continue
                ab = mul(a, b)
                for t, c in col:
                    out[t] = add(out[t], mul(c, ab))
        return tuple(out)

    def is_commutative(self) -> bool:
        r = self.rank
        return all(
            self.basis_product(i, j) == self.basis_product(j, i)
            for i in range(r)
            for j in range(i + 1, r)
        )

    def opposite(self) -> "AlgebraData":
        """The same carrier and unit with x·y := yx: column (i, j) of the
        multiplication becomes column (j, i)."""
        r = self.rank
        cols = self.mult.sparse_columns()
        mult = LinearMap.from_sparse_columns(
            tensor_module(self.carrier, self.carrier), self.mult.codomain,
            [cols[j * r + i] for i in range(r) for j in range(r)])
        return AlgebraData(self.carrier, mult, self.unit)

    def validate(self, subject: str = "algebra") -> ValidationReport:
        rep = ValidationReport(subject)
        assoc, unit = certified("algebra", (self.ring, self.mult.sparse_columns(),
                                            self.unit), self._axiom_failures)
        assoc = assoc and f"({','.join(map(self.carrier.label, assoc))})"
        rep.add("algebra.assoc", "multiplication is associative", assoc is None, assoc)
        unit = None if unit is None else self.carrier.label(unit)
        rep.add("algebra.unit", "two-sided unit law", unit is None, unit)
        return rep

    def _axiom_failures(self):
        """The first (i, j, k) failing associativity, the first i failing the unit law."""
        r = self.rank
        # associativity on all basis triples (i, j, k), in that order, row by
        # row: each distinct column x of the sparse table gets its row over k
        # of x·e_k, and each i the products e_i·y over the distinct columns y;
        # then (e_ie_j)e_k = e_i(e_je_k) for every k is one comparison of the
        # row of e_ie_j with e_i·(row j).  A column that is one basis element
        # e_t needs no arithmetic: its row is row t of the table, and e_i·e_t
        # is column (i, t).
        assoc = None
        ring, cols = self.ring, self.mult.sparse_columns()
        rows = [cols[t * r:(t + 1) * r] for t in range(r)]
        ids = {}
        col_id = [ids.setdefault(col, len(ids)) for col in cols]
        basis = [x[0][0] if len(x) == 1 and x[0][1] == ring.one else None for x in ids]
        right = [rows[b] if b is not None else
                 tuple(combine_columns(ring, [(rows[t][k], c) for t, c in x])
                       for k in range(r)) for x, b in zip(ids, basis)]
        for i in range(r):
            row_i = rows[i]
            left = [row_i[b] if b is not None else
                    combine_columns(ring, [(row_i[s], a) for s, a in y])
                    for y, b in zip(ids, basis)]
            for j in range(r):
                lhs = right[col_id[i * r + j]]
                rhs = tuple(map(left.__getitem__, col_id[j * r:(j + 1) * r]))
                if lhs != rhs:
                    assoc = (i, j, next(k for k in range(r) if lhs[k] != rhs[k]))
                    break
            if assoc:
                break
        unit = sparse_vector(self.unit)
        for i in range(r):
            e = ((i, ring.one),)
            if (combine_columns(ring, [(cols[t * r + i], c) for t, c in unit]) != e
                    or combine_columns(ring, [(cols[i * r + t], c) for t, c in unit]) != e):
                return assoc, i
        return assoc, None

    def __eq__(self, other):
        if not isinstance(other, AlgebraData):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rank == other.rank
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.rank, self.mult, self.unit))


class CoalgebraData:
    """A coassociative counital coalgebra; the counit maps into the rank-one module."""

    def __init__(self, carrier: FreeModule, comult: LinearMap, counit: LinearMap):
        if comult.domain.rank != carrier.rank or comult.codomain.rank != carrier.rank ** 2:
            raise DimensionMismatch("comultiplication must map carrier to carrier⊗carrier")
        if counit.domain.rank != carrier.rank or counit.codomain.rank != 1:
            raise DimensionMismatch("counit must map carrier to the ground ring")
        self.carrier = carrier
        self.comult = comult
        self.counit = counit
        self._sw_cache = {}

    @property
    def ring(self):
        return self.carrier.ring

    @property
    def rank(self):
        return self.carrier.rank

    def counit_scalar(self, vec):
        return self.counit.apply(vec)[0]

    def counit_values(self) -> tuple:
        """(ε(h_0), …, ε(h_{r-1})), read off the counit's sparse columns."""
        zero = self.ring.zero
        return tuple(col[0][1] if col else zero for col in self.counit.sparse_columns())

    def sweedler_basis(self, i: int, legs: int):
        """Left-nested expansion of the basis element i into ``legs`` tensor legs.

        Returns a tuple of (coefficient, index-tuple) with nonzero coefficients.
        """
        key = (i, legs)
        cached = self._sw_cache.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        if legs < 1:
            raise DimensionMismatch("at least one tensor leg required")
        if legs == 1:
            result = ((ring.one, (i,)),)
        else:
            r = self.rank
            cols = self.comult.sparse_columns()
            acc = {}
            for coeff, idx in self.sweedler_basis(i, legs - 1):
                for flat, d in cols[idx[0]]:
                    p, q = divmod(flat, r)
                    new = (p, q) + idx[1:]
                    c = ring.add(acc.get(new, ring.zero), ring.mul(coeff, d))
                    acc[new] = c
            result = tuple(
                (c, idx) for idx, c in sorted(acc.items()) if not ring.is_zero(c)
            )
        self._sw_cache[key] = result
        return result

    def sweedler(self, vec, legs: int):
        ring = self.ring
        acc = {}
        for i, a in enumerate(vec):
            if ring.is_zero(a):
                continue
            for coeff, idx in self.sweedler_basis(i, legs):
                c = ring.add(acc.get(idx, ring.zero), ring.mul(a, coeff))
                acc[idx] = c
        return tuple((c, idx) for idx, c in sorted(acc.items()) if not ring.is_zero(c))

    def is_cocommutative(self) -> bool:
        return self.co_opposite().comult == self.comult

    def co_opposite(self) -> "CoalgebraData":
        """The same carrier and counit with Δ^cop = τ∘Δ: the term h_p⊗h_q of
        each coproduct becomes h_q⊗h_p."""
        r = self.rank
        cols = [sorted(((flat % r) * r + flat // r, c) for flat, c in col)
                for col in self.comult.sparse_columns()]
        comult = LinearMap.from_sparse_columns(
            self.comult.domain, tensor_module(self.carrier, self.carrier), cols)
        return CoalgebraData(self.carrier, comult, self.counit)

    def validate(self, subject: str = "coalgebra") -> ValidationReport:
        rep = ValidationReport(subject)
        ring, r, mul = self.ring, self.rank, self.ring.mul
        D, E = self.comult.sparse_columns(), self.counit.sparse_columns()
        e = unit_vectors(ring, r)
        terms = [legs(col, r) for col in D]
        # per Δ(h) = Σ c·h_p⊗h_q: Σ c·Δ(h_p)⊗h_q against Σ c·h_p⊗Δ(h_q)
        witness = column_witness(
            (combine_columns(ring, [(kron_column(D[p], e[q], r, mul), c) for p, q, c in t])
             for t in terms),
            (combine_columns(ring, [(kron_column(e[p], D[q], r * r, mul), c) for p, q, c in t])
             for t in terms), self.carrier.label)
        rep.add("coalgebra.coassoc", "comultiplication is coassociative",
                witness is None, witness)
        witness = (column_witness(
            (combine_columns(ring, [(kron_column(E[p], e[q], r, mul), c) for p, q, c in t])
             for t in terms), e, self.carrier.label) or column_witness(
            (combine_columns(ring, [(kron_column(e[p], E[q], 1, mul), c) for p, q, c in t])
             for t in terms), e, self.carrier.label))
        rep.add("coalgebra.counit", "counit laws hold", witness is None, witness)
        return rep


class BialgebraData:
    """An algebra and coalgebra on the same carrier, compatibly."""

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData):
        if algebra.carrier.rank != coalgebra.carrier.rank or algebra.ring != coalgebra.ring:
            raise DimensionMismatch("algebra and coalgebra must share a carrier")
        self.algebra = algebra
        self.coalgebra = coalgebra

    @property
    def carrier(self):
        return self.algebra.carrier

    @property
    def ring(self):
        return self.algebra.ring

    @property
    def rank(self):
        return self.algebra.rank

    def validate(self, subject: str = "bialgebra") -> ValidationReport:
        rep = ValidationReport(subject)
        rep.extend(self.algebra.validate(subject))
        rep.extend(self.coalgebra.validate(subject))
        ring, r, mul = self.ring, self.rank, self.ring.mul
        M = self.algebra.mult.sparse_columns()
        D, E = self.coalgebra.comult.sparse_columns(), self.coalgebra.counit.sparse_columns()
        terms = [legs(col, r) for col in D]
        basis_pairs = [(x, y) for x in range(r) for y in range(r)]
        pairs = product_label(self.carrier, self.carrier)
        # Δ is an algebra morphism into H⊗H: Δ(xy) against Σ ab·pp'⊗qq' over
        # the legs a·p⊗q of Δ(x) and b·p'⊗q' of Δ(y) where pp' and qq' ≠ 0
        w = column_witness(
            (combine_columns(ring, [(D[t], c) for t, c in col]) for col in M),
            (combine_columns(ring, [(kron_column(u, v, r, mul), mul(a, b))
                                    for p, q, a in terms[x] for p2, q2, b in terms[y]
                                    if (u := M[p * r + p2]) and (v := M[q * r + q2])])
             for x, y in basis_pairs), pairs)
        rep.add("bialgebra.comult_mult", "comultiplication is multiplicative", w is None, w)
        # ε is an algebra morphism
        w = column_witness((combine_columns(ring, [(E[t], c) for t, c in col]) for col in M),
                           (kron_column(E[x], E[y], 1, mul) for x, y in basis_pairs), pairs)
        rep.add("bialgebra.counit_mult", "counit is multiplicative", w is None, w)
        # the unit is grouplike
        one = self.algebra.unit
        ok = self.coalgebra.comult.apply(one) == kron_vec(self.ring, one, one)
        ok = ok and self.ring.is_one(self.coalgebra.counit_scalar(one))
        rep.add("bialgebra.unit_grouplike", "Δ(1)=1⊗1 and ε(1)=1", ok,
                None if ok else "1")
        return rep


class HopfData:
    """A bialgebra with its antipode S and twisted antipode S̄.

    The twisted antipode is an antipode for the opposite algebra: it satisfies
    Σ S̄(h₂)h₁ = ε(h)1 = Σ h₂S̄(h₁).  Over a commutative ring the antipode of
    a finitely generated projective Hopf algebra is bijective, so every valid
    input has S̄ = S⁻¹; ``catalog.hopf_from_parts`` and the instance parser
    compute it once when the input supplies none.
    """

    def __init__(self, bialgebra: BialgebraData, antipode: LinearMap,
                 twisted_antipode: LinearMap):
        if antipode.domain.rank != bialgebra.rank or antipode.codomain.rank != bialgebra.rank:
            raise DimensionMismatch("antipode must be an endo-map of the carrier")
        self.bialgebra = bialgebra
        self.antipode = antipode
        self.twisted_antipode = twisted_antipode

    @property
    def algebra(self):
        return self.bialgebra.algebra

    @property
    def coalgebra(self):
        return self.bialgebra.coalgebra

    @property
    def carrier(self):
        return self.bialgebra.carrier

    @property
    def ring(self):
        return self.bialgebra.ring

    @property
    def rank(self):
        return self.bialgebra.rank

    def validate(self, subject: str = "hopf") -> ValidationReport:
        rep = self.bialgebra.validate(subject)
        ring, r, mul = self.ring, self.rank, self.ring.mul
        M = self.algebra.mult.sparse_columns()
        one = sparse_vector(self.algebra.unit)
        eta_eps = [combine_columns(ring, [(one, x) for _, x in col])
                   for col in self.coalgebra.counit.sparse_columns()]
        terms = [legs(col, r) for col in self.coalgebra.comult.sparse_columns()]
        cop = [[(q, p, c) for p, q, c in t] for t in terms]
        label = self.carrier.label

        def witness(S, legs_of):
            # Σ c·S(h_p)h_q, then Σ c·h_pS(h_q), over the legs c·h_p⊗h_q of
            # each element of ``legs_of``, against ε(h)1
            S = S.sparse_columns()
            return column_witness(
                (combine_columns(ring, [(M[s * r + q], mul(c, x))
                                        for p, q, c in t for s, x in S[p]])
                 for t in legs_of), eta_eps, label) or column_witness(
                (combine_columns(ring, [(M[p * r + s], mul(c, x))
                                        for p, q, c in t for s, x in S[q]])
                 for t in legs_of), eta_eps, label)

        w = witness(self.antipode, terms)
        rep.add("hopf.antipode", "Σ S(h₁)h₂ = ε(h)1 = Σ h₁S(h₂)", w is None, w)
        rep.extend(_anti_morphism_checks(self, self.antipode, cop,
                                         "hopf.antipode_anti", "antipode"))
        w = witness(self.twisted_antipode, cop)
        rep.add("hopf.twisted_antipode", "Σ S̄(h₂)h₁ = ε(h)1 = Σ h₂S̄(h₁)",
                w is None, w)
        rep.extend(_anti_morphism_checks(self, self.twisted_antipode, cop,
                                         "hopf.twisted_anti", "twisted antipode"))
        return rep

    def __eq__(self, other):
        if not isinstance(other, HopfData):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.coalgebra.comult == other.coalgebra.comult
            and self.coalgebra.counit == other.coalgebra.counit
            and self.antipode == other.antipode
            and self.twisted_antipode == other.twisted_antipode
        )


def _anti_morphism_checks(h: HopfData, S: LinearMap, cop, prefix: str,
                          name: str) -> ValidationReport:
    """S(xy) = S(y)S(x) on every basis pair and Δ(S(h)) = Σ c·S(h_p)⊗S(h_q)
    over the legs c·h_p⊗h_q of Δ^cop(h) in ``cop``, plus the unit and counit."""
    rep = ValidationReport()
    ring, r, mul = h.ring, h.rank, h.ring.mul
    M = h.algebra.mult.sparse_columns()
    D, E = h.coalgebra.comult.sparse_columns(), h.coalgebra.counit.sparse_columns()
    S_cols = S.sparse_columns()
    alg_anti = all(
        combine_columns(ring, [(S_cols[t], c) for t, c in M[x * r + y]])
        == combine_columns(ring, [(M[t * r + s], mul(a, b))
                                  for s, a in S_cols[x] for t, b in S_cols[y]])
        for x in range(r) for y in range(r))
    unit_ok = S.apply(h.algebra.unit) == h.algebra.unit
    rep.add(f"{prefix}.algebra", f"{name} is an algebra anti-morphism",
            alg_anti and unit_ok)
    coalg_anti = all(
        combine_columns(ring, [(D[t], c) for t, c in S_cols[j]])
        == combine_columns(ring, [(kron_column(S_cols[p], S_cols[q], r, mul), c)
                                  for p, q, c in cop[j]])
        for j in range(r))
    counit_ok = all(combine_columns(ring, [(E[t], c) for t, c in S_cols[j]]) == E[j]
                    for j in range(r))
    rep.add(f"{prefix}.coalgebra", f"{name} is a coalgebra anti-morphism",
            coalg_anti and counit_ok)
    return rep


# ---------------------------------------------------------------------------
# convolution


def convolve(source: CoalgebraData, target: AlgebraData, f: LinearMap,
             g: LinearMap) -> LinearMap:
    """f⋆g in Hom(C, A): (f⋆g)(c_j) = Σ d·f(c_p)g(c_q) over the legs
    d·c_p⊗c_q of Δ(c_j), each product read off A's sparse table."""
    ring = source.ring
    prod = bilinear(ring, target.mult, target.rank)
    F, G = f.sparse_columns(), g.sparse_columns()
    cols = [combine_columns(ring, [(prod(F[p], G[q]), d) for p, q, d in legs(col, source.rank)])
            for col in source.comult.sparse_columns()]
    return LinearMap.from_sparse_columns(source.carrier, target.carrier, cols)


def convolution_invert(source: CoalgebraData, target: AlgebraData,
                       f: LinearMap) -> LinearMap:
    """The two-sided convolution inverse of ``f`` in Hom(C, A), unit η∘ε.

    Solves f⋆x = η∘ε as a linear system on the Hom(C, A) flattening, then
    verifies x⋆f = η∘ε; a right inverse that fails the left check is
    reported distinctly (a two-sided inverse, when it exists, is unique and
    equals every one-sided one).
    """
    hom = hom_module(source.carrier, target.carrier)  # RingMismatch across rings
    ring, rC, rA = source.ring, source.rank, target.rank
    M, F = target.mult.sparse_columns(), f.sparse_columns()
    by_second = [[] for _ in range(rC)]  # the legs d·c_p⊗c_l of Δ(c_j) as (j, p, d), by l
    for j, col in enumerate(source.comult.sparse_columns()):
        for p, l, d in legs(col, rC):
            by_second[l].append((j, p, d))
    # column [c_l ↦ a_k] of x ↦ f⋆x is c_j ↦ Σ d·f(c_p)·a_k over by_second[l]
    cols = []
    for k, l in product(range(rA), range(rC)):
        out = {}
        for j, p, d in by_second[l]:
            for i, x in F[p]:
                hom_scatter(out, ring, ring.mul(d, x), M[i * rA + k], rC, j)
        cols.append(sparse_column(out))
    unit = target.unit_map() @ source.counit
    flat = sparse_column({i * rC + j: c for j, col in enumerate(unit.sparse_columns())
                          for i, c in col})
    sol = PreparedSolver(ring, cols, hom.rank).solve(flat)
    if sol is None:
        raise NotConvInvertible("f⋆x = η∘ε has no solution", reason="no_right_inverse")
    xcols = [[] for _ in range(rC)]  # [c_j ↦ a_i] sits at i·rC + j, i increasing
    for i, j, c in legs(sol, rC):
        xcols[j].append((i, c))
    x = LinearMap.from_sparse_columns(source.carrier, target.carrier, xcols)
    if convolve(source, target, x, f) != unit:
        raise NotConvInvertible("right inverse exists but x⋆f ≠ η∘ε", reason="one_sided")
    return x


def compute_antipode(b: BialgebraData) -> LinearMap:
    """The antipode as the convolution inverse of the identity in Hom(H, H)."""
    return convolution_invert(b.coalgebra, b.algebra, LinearMap.identity(b.carrier))


def compute_twisted_antipode(b: BialgebraData) -> LinearMap:
    """The antipode of the opposite algebra (same coalgebra), when it exists."""
    return convolution_invert(b.coalgebra, b.algebra.opposite(),
                              LinearMap.identity(b.carrier))


# ---------------------------------------------------------------------------
# duals, opposites, tensor and matrix algebras


def dual_hopf(h: HopfData) -> HopfData:
    """The dual Hopf algebra on H* (finite free rank, so H° = H*)."""
    Hd = dual_module(h.carrier)
    HdHd = tensor_module(Hd, Hd)
    # (δ_i ⋆ δ_j)(h_k) = coefficient of h_i⊗h_j in Δ(h_k): every structure
    # map of H* is the transpose of one of H
    mult_d = transpose(h.coalgebra.comult, HdHd, Hd)
    unit_d = h.coalgebra.counit_values()
    comult_d = transpose(h.algebra.mult, Hd, HdHd)
    counit_d = transpose(h.algebra.unit_map(), Hd, unit_module(h.ring))
    out = HopfData(
        BialgebraData(AlgebraData(Hd, mult_d, unit_d),
                      CoalgebraData(Hd, comult_d, counit_d)),
        transpose(h.antipode, Hd, Hd),
        transpose(h.twisted_antipode, Hd, Hd),
    )
    out.validate("dual").require()
    return out


def opposite_hopf(h: HopfData) -> HopfData:
    """H^op as a Hopf algebra: its antipode is the twisted antipode of H."""
    return HopfData(BialgebraData(h.algebra.opposite(), h.coalgebra),
                    h.twisted_antipode, h.antipode)


def tensor_algebra(a: AlgebraData, b: AlgebraData) -> AlgebraData:
    """A ⊗ B with componentwise product (a⊗b)(a'⊗b') = aa'⊗bb'."""
    if a.ring != b.ring:
        raise RingMismatch("tensor algebra over different rings")
    rA, rB = a.rank, b.rank
    mul = a.ring.mul
    acols, bcols = a.mult.sparse_columns(), b.mult.sparse_columns()
    # column (a1⊗b1)⊗(a2⊗b2) is column (a1⊗a2)⊗(b1⊗b2) of kron(a.mult, b.mult)
    cols = [kron_column(acols[a1 * rA + a2], bcols[b1 * rB + b2], rB, mul)
            for a1 in range(rA) for b1 in range(rB)
            for a2 in range(rA) for b2 in range(rB)]
    carrier = tensor_module(a.carrier, b.carrier)
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    return AlgebraData(carrier, mult, kron_vec(a.ring, a.unit, b.unit))


def tensor_coalgebra(c: CoalgebraData, d: CoalgebraData) -> CoalgebraData:
    """C ⊗ D with Δ = (id⊗τ⊗id)∘(Δ_C⊗Δ_D) and ε = ε_C⊗ε_D."""
    if c.ring != d.ring:
        raise RingMismatch("tensor coalgebra over different rings")
    rC, rD = c.rank, d.rank
    # row (c1⊗c2)⊗(d1⊗d2) of kron(c.comult, d.comult) is row (c1⊗d1)⊗(c2⊗d2)
    moved = [((c1 * rD + d1) * rC + c2) * rD + d2 for c1 in range(rC)
             for c2 in range(rC) for d1 in range(rD) for d2 in range(rD)]
    dcols = d.comult.sparse_columns()
    cols = [sorted((moved[k], x) for k, x in kron_column(ccol, dcol, rD * rD, c.ring.mul))
            for ccol in c.comult.sparse_columns() for dcol in dcols]
    carrier = tensor_module(c.carrier, d.carrier)
    comult = LinearMap.from_sparse_columns(carrier, tensor_module(carrier, carrier), cols)
    return CoalgebraData(carrier, comult, kron(c.counit, d.counit))


def matrix_algebra(ring, n: int) -> AlgebraData:
    """M_n(R) on the matrix units e_ij with e_ij·e_kl = δ_jk·e_il."""
    return _matrix_units(FreeModule(ring, n * n, lambda k: f"e[{k // n},{k % n}]"), n)


def endomorphism_algebra(module: FreeModule) -> AlgebraData:
    """End_R(M) under composition, on the Hom(M, M) flattening.

    With the row-major hom flattening this has exactly the structure constants
    of :func:`matrix_algebra`.
    """
    return _matrix_units(hom_module(module, module), module.rank)


def _matrix_units(carrier: FreeModule, n: int) -> AlgebraData:
    """The table e_ij·e_jl = e_il on a rank-n² carrier, e_ij at index i·n+j:
    its n³ nonzero constants as sparse columns, every other column empty."""
    one, zero = carrier.ring.one, carrier.ring.zero
    cols = [[(i * n + l, one)] if j == k else []
            for i, j, k, l in product(range(n), repeat=4)]
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    unit = tuple(one if (idx // n) == (idx % n) else zero for idx in range(n * n))
    return AlgebraData(carrier, mult, unit)


def validate_hopf(h: HopfData, subject: str = "hopf") -> ValidationReport:
    """Every axiom, exact pass/fail, witness basis element on failure."""
    return h.validate(subject)


# ---------------------------------------------------------------------------
# certified isomorphisms


class AlgebraIso:
    """A linear map certified multiplicative, unital and invertible."""

    def __init__(self, source: AlgebraData, target: AlgebraData, map_: LinearMap,
                 inverse: LinearMap):
        self.source = source
        self.target = target
        self.map = map_
        self.inverse = inverse

    def compose(self, earlier: "AlgebraIso") -> "AlgebraIso":
        """self ∘ earlier, staying certified (composites of isos are isos)."""
        if earlier.target is not self.source and earlier.target != self.source:
            raise DimensionMismatch("iso composition mismatch")
        return AlgebraIso(earlier.source, self.target, self.map @ earlier.map,
                          earlier.inverse @ self.inverse)


def algebra_morphism_witness(source: AlgebraData, target: AlgebraData,
                             map_: LinearMap) -> Optional[str]:
    """First basis pair where map(xy) ≠ map(x)map(y), or a unit failure,
    or None when the map is a unital algebra morphism."""
    if map_.domain.rank != source.rank or map_.codomain.rank != target.rank:
        raise DimensionMismatch("map shape does not match the algebras")
    failure = certified("morphism", (source.ring, map_.ring, source.mult.sparse_columns(),
                                     source.unit, target.mult.sparse_columns(),
                                     target.unit, map_.sparse_columns()),
                        lambda: _morphism_failure(source, target, map_))
    if isinstance(failure, tuple):
        return f"({','.join(map(source.carrier.label, failure))})"
    return failure


def _morphism_failure(source: AlgebraData, target: AlgebraData, map_: LinearMap):
    """The string "1", the first basis pair (i, j) that fails, or None."""
    if map_.apply(source.unit) != target.unit:
        return "1"
    r, rt = source.rank, target.rank
    ring = source.ring
    mul = ring.mul
    images = map_.sparse_columns()
    tcols = target.mult.sparse_columns()
    mapped = {}  # map(e_ie_j), once per distinct column e_ie_j
    for i in range(r):
        for j in range(r):
            col = source.basis_product(i, j)
            lhs = mapped.get(col)
            if lhs is None:
                lhs = mapped[col] = combine_columns(ring, [(images[t], c) for t, c in col])
            rhs = combine_columns(ring, [(tcols[p * rt + q], mul(a, b))
                                         for p, a in images[i] for q, b in images[j]])
            if lhs != rhs:
                return i, j
    return None


def certify_algebra_iso(source: AlgebraData, target: AlgebraData,
                        map_: LinearMap, what: str = "iso") -> AlgebraIso:
    """Check map(xy)=map(x)map(y) on all basis pairs, map(1)=1, and invert."""
    witness = algebra_morphism_witness(source, target, map_)
    if witness is not None:
        raise ValidationError(f"{what}: not a unital algebra morphism at {witness}")
    inverse = invert_map(map_)
    return AlgebraIso(source, target, map_, inverse)

