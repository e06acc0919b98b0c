"""Dense reference definitions for the sparse kernels and structure builders.

Each definition builds its result entry by entry on the dense matrices, with
nothing from hopfdual but the ring operations and the dense-first
``DenseMap`` container: a triple-loop product, an entrywise Kronecker
product, a permutation-matrix twist, and the Kronecker-and-twist composites
that define tensor, opposite and convolution structure constants.
``test_linalg.py`` and ``test_hopf.py`` require the library to agree with
them bit for bit.

``DenseMap`` is the linear map that stores its dense matrix and derives its
sparse columns on first use, with equality and hashing on the matrix;
``test_linalg.py`` requires the library's sparse-first ``LinearMap`` to agree
with it on every constructor, ``compose``, ``kron``, the twist and the
opposite table: matrix, sparse columns, columns, application, equality and
hashing, entry types included.  ``regular_act_left`` and
``regular_act_right`` are the regular actions of H on H* as triple loops
over the dense multiplication table; ``subalgebra_closure`` is U's
ε-coordinates, ⋆ witnesses and action witnesses solved with them on dense
functionals (``u_dense`` expands U's sparse generators), and
``test_actions.py`` and ``test_smash.py`` require U's sparse closure data to
agree with it.

``gamma_map`` and ``delta_map`` are the duality maps γ and δ written as the
plain Sweedler sums, every factor recomputed for every term, column and
functional; ``test_duality.py`` requires the tabulated library maps to agree
with them entry for entry.

``validate_algebra``, ``hat_smash``, ``op_hat_smash`` and ``coordinate_smash``
are the associativity certificate and the smash-product builders as sums of
whole products: two sparse-dict products per basis triple, and every
B-product, regular action, ⋆-product and U-coordinate recomputed for every
term.  ``test_hopf.py`` and ``test_smash.py`` require the index-arithmetic
kernels to agree with them (records and witnesses; entries and entry types).
``algebra_morphism_witness`` applies the map to the dense expansion of every
basis product and multiplies the images as sparse dicts, pair by pair;
``test_hopf.py`` requires the library's witness strings to equal its own.

``validate_hopf`` (with ``validate_bialgebra``, ``validate_coalgebra`` and
``anti_morphism_checks``), ``validate_comodule_algebra`` and
``validate_weak_action`` (with ``spread_coproduct``) are the axiom
validators as whole-map composites of Kronecker products, twists, tensor
algebras and compositions, compared as maps and located by ``map_witness``;
``test_validators.py`` requires the library's index-arithmetic validators to
give the same records and witnesses.  ``coact_terms`` reads the (b, h, c)
terms of a coaction column for the smash oracles.

``normality``, ``cocycle_identity``, ``twisted_module_identity`` (together
``cocycle_flags``), ``crossed_table`` and ``left_smash_table`` are the
crossed-product identities and tables with one dense A-product, action and
σ-evaluation per Sweedler term; ``test_crossed.py`` and ``test_smash.py``
require the index-arithmetic kernels to agree with them.
``left_smash_indexed`` (A#H with every leg of Δ(h_j) summed and its table
compared with ``crossed.crossed_table``) and ``coordinate_smash_indexed``
(B#U and B#^opU with each U-coordinate solved by ``express``) are the
index-arithmetic builders before they read only the live legs and U's closure
witnesses; ``test_smash.py`` requires the library to agree with them bit for
bit.  ``hit_action_of_dual`` is the action map of H* on H by f⇀k, summed for
f = δ_l over the terms of Δ(k) with second leg l rather than through
``actions.hit``; ``test_smash.py`` requires the library's to agree with it.

``pi_map`` is π as a plain Sweedler sum on either side, its g-free factor
recomputed for every g, and on the right side in either reading of the
ambiguous product order: g(k₅) on the left reproduces the library's π, and
g(k₅) on the right is the negative control that breaks π∘α = γ
(``test_duality.py``).  ``nu_map``, ``chi_map`` and ``phi_maps`` /
``epsilon_maps`` (through ``_sweedler_columns``, which scans all of Δ(h_t)
for every column) are ν, χ, φ₁/φ₂ and ε/ε⁻¹ as dense term-by-term sums, χ
with its own f⇀k loop rather than λ's columns; ``theta_inverse``,
``extracted_action_and_sigma`` and ``cleft_maps`` are θ⁻¹, the action and σ
of a cleft extraction and φ̃, ψ̃ with a dense B-product chain per term.
``test_duality.py`` requires the library's sums to agree with all of them
entry for entry.  ``vec_add``, ``vec_scale``, ``zero_vector``,
``product_many`` and ``scatter_value`` are the dense vector helpers these
definitions are written with; the library has none.  ``matrix_algebra`` and ``endomorphism_algebra`` build
M_n(R) as n⁴ dense columns, End(M) by re-wrapping that table on the Hom
carrier; ``test_hopf.py`` requires the sparse builders to agree bit for bit.

``subalgebra_express`` is ``SubalgebraU.express`` as it was on dense
functionals: the dense P of ``split_coefficient_map`` applied, then the
functional rebuilt densely, one scale and one add per U-element;
``test_smash.py`` requires the library's sparse ``express`` to give the same
coordinates or ``None``, and ``test_linalg.py`` requires
``linalg.split_coordinates`` to answer like P with that check.

``coaction_table`` (with ``coaction_rows`` and ``coaction_checks``),
``compat_maps``, ``rl_check`` and ``first_outside`` are the hypothesis layer
as sums of whole products: dense ⋆-products, regular actions, H- and
A-products and σ-evaluations per term, and a fresh factorization of the
span (``submodule_membership``, this module's solver) for every vector;
``compat_records`` assembles the compatibility verdicts and witnesses from
them.  ``test_duality.py`` requires the index-arithmetic layer to agree with
them (maps bit for bit, records and witnesses), and ``test_linalg.py``
requires the library's ``PreparedSolver.solve`` on the generators to answer
like ``submodule_membership``.

``PreparedSolver`` and ``invert_map`` are the solver and inversion before the
field path: Gaussian elimination over Q only, every Z/n system (prime n
included) lifted to ``[A | n*I]`` and Smith-reduced, and an inverse made of a
determinant, then one solve per column, then the two-sided check.  The solver
keeps the dense interface the library had: dense rows in, a dense
right-hand side in and a ``SolveResult`` (status, particular solution,
kernel) out.  Every oracle here that solves uses it, so no oracle shares a
solver with the code it checks.  They reuse the library's unchanged
``smith_normal_form``, ``canonical_span`` and ``determinant``.
``test_linalg.py`` requires the library's inverses to agree with them bit
for bit, its failures message for message, and its sparse solves on
solvability, on the kernel, and on the particular solution where it is
unique.  ``duality_iso_map`` is the duality isomorphism's matrix
as the library formed it while it inverted χ, χ⁻¹∘γ through that
``invert_map``, so for U = H* only; ``test_duality.py`` requires the
library's, read in λ's coordinates, to equal it bit for bit.

``FractionRing`` is the rationals with every element a ``Fraction``,
integral or not (integral ``add``/``sub``/``mul`` on the numerators, the
``Fraction`` operators otherwise); ``test_rings.py`` requires ``QQ`` to agree
with it op for op, value and hash, while returning the canonical form that
``is_canonical`` tests: over Q an ``int`` exactly when the value is integral.
``rref_rows`` is the reduced row echelon form over Q with the ``Fraction``
operators; ``test_linalg.py`` requires ``linalg._rref_rows`` to agree with it
and to return canonical entries.

The last section keeps the map builders as they were while they wrote dense
columns: ``hom_scatter`` adds into a dense Hom(C, B) list, and each map is
made by ``DenseMap.from_columns``, which runs every entry through the ring.
They are λ, α, the γ/δ contraction (``_tabulated``, patched into the
library's γ and δ by ``tabulated_maps``), the φ/ψ sum (``_hom_values``,
through ``hom_value_maps``), the unit embeddings and convolution unit, the
convolution-inversion system, the tensor counit, the coinvariant and U
inclusions, ``action_from_endomorphisms``, the catalog's hand-written
endomorphisms and σ, θ, the extracted product and isomorphism, the opposite
isomorphism G and ``split_coefficient_map`` (the dense left inverse P that
``linalg.split_coordinates`` now keeps as sparse columns).
``test_map_builders.py`` and ``test_linalg.py`` require the library's
sparse-column builders to agree with them bit for bit, entry types included.

``ConvolutionAlgebra`` is convolution as the library computed it on flat
row-major Hom vectors before ``hopf.convolve`` and
``hopf.convolution_invert`` took and returned maps: ``convolve`` on vectors,
``algebra`` as the whole convolution table (``dual_algebra`` is H* as that
table) and ``invert`` by one solve of :func:`convolution_system`.
``test_map_builders.py`` requires the library's inversion system, S, S̄, σ⁻¹
and θ⁻¹ to agree with it bit for bit, and ``test_hopf.py`` and
``test_smash.py`` compare ``convolve``, ``SubalgebraU.star`` and the hat
smash tables with it.

``coaction_preimage_of_U`` and ``coefficient_space_of_action`` are the two
V builders with dense generators and one dense h⇀a per entry;
``test_duality.py`` requires the library's to give the same lists.
``act``, ``act_basis``, ``expand_sparse``, ``hit`` and ``rho_endo`` are the
dense element helpers the library had before every builder handed its
elements on as canonical sparse vectors: h⇀a as the action map applied to
the dense h⊗a or read off one column block, the dense tuple of a sparse
vector, and f⇀h_t and ρ(g) on dense functionals.  The oracles here are
written with them.  Where an oracle reads a sparse library result (the
coinvariants' vectors and coordinates, in ``_cleft_express`` and
``coinvariant_inclusion``) it expands it to dense tuples, and ``rl_dense``
expands the library's RL failures and witnesses for comparison with
``rl_check``.
"""
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Optional
from unittest import mock

from hypothesis import strategies as st

from builders import map_from_columns
from hopfdual import crossed, duality, linalg
from hopfdual.catalog import ground_algebra
from hopfdual.crossed import CocycleFlags
from hopfdual.actions import coinvariants
from hopfdual.duality import DiagramSide, end_rep_module
from hopfdual.errors import (
    DimensionMismatch,
    NotConvInvertible,
    NotInvertible,
    RingMismatch,
    ValidationError,
)
from hopfdual.hopf import (
    AlgebraData,
    dual_hopf,
    tensor_algebra,
)
from hopfdual.linalg import (
    LinearMap,
    canonical_span,
    determinant,
    dual_module,
    free_module,
    hom_module,
    kron_vec,
    smith_normal_form,
    tensor_module,
    twist_map,
    unit_module,
)
from hopfdual.reporting import ValidationReport
from hopfdual.smash import ModuleSide
from hopfdual.rings import QQ, ZZ, ModularRing, RationalRing, Ring, Zmod

RINGS = (ZZ, QQ, Zmod(6))


class FractionRing(Ring):
    """Q with every element boxed in a ``Fraction``."""

    kind = "rationals"
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a rational ring element")
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
        raise TypeError(f"not a rational: {value!r}")

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        if a.denominator == 1 == b.denominator:
            return Fraction(a.numerator + b.numerator)
        return a + b

    def sub(self, a, b):
        if a.denominator == 1 == b.denominator:
            return Fraction(a.numerator - b.numerator)
        return a - b

    def mul(self, a, b):
        if a.denominator == 1 == b.denominator:
            return Fraction(a.numerator * b.numerator)
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not a unit in Q", determinant=a)
        return Fraction(1) / a

    def show(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


def is_canonical(ring, x):
    """``x`` is in the ring's canonical form: over Q an ``int`` when integral and
    a ``Fraction`` with denominator > 1 otherwise; an ``int`` fixed by ``ring.of``
    over Z and Z/n."""
    if ring == QQ:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and ring.of(x) == x


def rref_rows(vectors):
    """The nonzero rows of the reduced row echelon form of ``vectors`` over Q."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return []
    k = len(rows[0])
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        inv = Fraction(1, lead) if isinstance(lead, int) else lead ** -1
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)]


def zero_vector(module):
    """The zero vector of a free module."""
    return (module.ring.zero,) * module.rank


def product_many(alg, *vectors):
    """((1·v₁)·v₂)·…, the left fold from the unit of ``alg``."""
    out = alg.unit
    for v in vectors:
        out = alg.product(out, v)
    return out


def vec_add(ring, u, v):
    """u + v, entry by entry."""
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def vec_scale(ring, c, u):
    """c·u, entry by entry (zero entries kept as they are)."""
    if not c:
        return (ring.zero,) * len(u)
    return tuple(ring.mul(c, a) if a else a for a in u)


def expand_sparse(sparse, rank, ring):
    """The dense tuple of length ``rank`` of a canonical sparse vector."""
    out = [ring.zero] * rank
    for i, c in sparse:
        out[i] = c
    return tuple(out)


@cache
def u_dense(U):
    """U's generators (canonical sparse functionals) as dense tuples."""
    return tuple(expand_sparse(f, U.hopf.rank, U.hopf.ring) for f in U.elements)


def act(action, h_vec, a_vec):
    """h⇀a on dense vectors: the action map applied to the dense h⊗a."""
    return action.action.apply(kron_vec(action.ring, h_vec, a_vec))


def act_basis(action, i, a_vec):
    """h_i⇀a for a dense a, read off the action's sparse columns."""
    ring = action.ring
    rA = action.algebra.rank
    cols = action.action.sparse_columns()
    out = [ring.zero] * rA
    for j, a in enumerate(a_vec):
        if a:
            for t, c in cols[i * rA + j]:
                out[t] = ring.add(out[t], ring.mul(c, a))
    return tuple(out)


def hit(h, f_vec, t):
    """f⇀h_t = Σ k₁f(k₂) over Δ(h_t) for a dense functional f, as a dense
    vector."""
    ring = h.ring
    out = [ring.zero] * h.rank
    for c, (k1, k2) in h.coalgebra.sweedler_basis(t, 2):
        s = ring.mul(c, f_vec[k2])
        if s:
            out[k1] = ring.add(out[k1], s)
    return tuple(out)


def rho_endo(hopf, g_vec):
    """ρ(g) = [k ↦ Σ g(k₁)k₂] as a dense End_R(H) coordinate vector."""
    ring, rH = hopf.ring, hopf.rank
    out = [ring.zero] * (rH * rH)
    for t in range(rH):
        for c, (k1, k2) in hopf.coalgebra.sweedler_basis(t, 2):
            s = ring.mul(c, g_vec[k1])
            if s:
                out[k2 * rH + t] = ring.add(out[k2 * rH + t], s)
    return tuple(out)


def rl_dense(rl, ring, rank):
    """The failures and witnesses of the library's RL report, every sparse
    vector expanded to the dense tuple that :func:`rl_check` gives."""
    def vec(v):
        return expand_sparse(v, rank, ring)
    return ([vec(g) for g in rl.failures],
            [duality.RLWitness(vec(w.g), tuple((vec(x), vec(y)) for x, y in w.pairs))
             for w in rl.witnesses])


def scatter_value(out, ring, val, rH, t):
    """Add the dense ``val`` ∈ B into the value at h_t of a Hom(H, B)
    coordinate vector."""
    for p, v in enumerate(val):
        if v:
            out[p * rH + t] = ring.add(out[p * rH + t], v)


class DenseMap:
    """The dense-first linear map: it stores the row-major matrix and derives
    the sparse columns from it on first use.  Equality and hashing read the
    matrix.  ``test_linalg.py`` requires the library's sparse-first
    ``LinearMap`` to agree with it on every constructor and kernel."""

    __slots__ = ("domain", "codomain", "matrix", "_cols")

    def __init__(self, domain, codomain, matrix):
        if domain.ring != codomain.ring:
            raise RingMismatch("domain and codomain rings differ")
        ring = domain.ring
        rows = tuple(tuple(ring.of(x) for x in row) for row in matrix)
        if len(rows) != codomain.rank:
            raise DimensionMismatch(
                f"matrix has {len(rows)} rows, codomain rank is {codomain.rank}")
        for row in rows:
            if len(row) != domain.rank:
                raise DimensionMismatch(
                    f"matrix row length {len(row)}, domain rank {domain.rank}")
        self.domain, self.codomain, self.matrix, self._cols = domain, codomain, rows, None

    @staticmethod
    def _raw(domain, codomain, rows):
        """A map over exactly ``rows``, with no re-canonicalisation."""
        m = object.__new__(DenseMap)
        m.domain, m.codomain, m._cols = domain, codomain, None
        m.matrix = tuple(tuple(r) for r in rows)
        return m

    @staticmethod
    def from_sparse_columns(domain, codomain, cols):
        zero = domain.ring.zero
        rows = [[zero] * domain.rank for _ in range(codomain.rank)]
        for j, col in enumerate(cols):
            for i, c in col:
                rows[i][j] = c
        m = DenseMap._raw(domain, codomain, rows)
        m._cols = tuple(map(tuple, cols))
        return m

    @staticmethod
    def from_columns(domain, codomain, cols):
        cols = list(cols)
        return DenseMap(domain, codomain,
                        [[col[i] for col in cols] for i in range(codomain.rank)])

    @staticmethod
    def identity(module):
        one, zero = module.ring.one, module.ring.zero
        return DenseMap(module, module, [[one if i == j else zero
                                          for j in range(module.rank)]
                                         for i in range(module.rank)])

    @property
    def ring(self):
        return self.domain.ring

    def column(self, j):
        return tuple(row[j] for row in self.matrix)

    def sparse_columns(self):
        if self._cols is None:
            if self.codomain.rank:
                self._cols = tuple(tuple((i, x) for i, x in enumerate(col) if x)
                                   for col in zip(*self.matrix))
            else:
                self._cols = ((),) * self.domain.rank
        return self._cols

    def apply(self, vec):
        ring = self.ring
        out = [ring.zero] * self.codomain.rank
        cols = self.sparse_columns()
        for j, x in enumerate(vec):
            if x:
                for i, c in cols[j]:
                    out[i] = ring.add(out[i], ring.mul(c, x))
        return tuple(out)

    def compose(self, other):
        """self ∘ other, each column summed in a dense accumulator."""
        ring = self.ring
        inner = self.sparse_columns()
        cols = []
        for col in other.sparse_columns():
            out = [ring.zero] * self.codomain.rank
            for k, x in col:
                for i, c in inner[k]:
                    out[i] = ring.add(out[i], ring.mul(c, x))
            cols.append([(i, v) for i, v in enumerate(out) if v])
        return DenseMap.from_sparse_columns(other.domain, self.codomain, cols)

    def __eq__(self, other):
        if not isinstance(other, DenseMap):
            return NotImplemented
        return (self.ring == other.ring
                and self.domain.rank == other.domain.rank
                and self.codomain.rank == other.codomain.rank
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.domain.rank, self.codomain.rank, self.matrix))


def regular_act_left(h, h_vec, f_vec):
    """(hf)(k) = f(kh): the triple loop over the dense multiplication table."""
    return _regular_act(h, h_vec, f_vec, lambda l, i, r: l * r + i)


def regular_act_right(h, f_vec, h_vec):
    """(fh)(k) = f(hk): the triple loop over the dense multiplication table."""
    return _regular_act(h, h_vec, f_vec, lambda l, i, r: i * r + l)


def _regular_act(h, h_vec, f_vec, column):
    b = h.bialgebra
    ring, r, mult = b.ring, b.rank, b.algebra.mult.matrix
    out = [ring.zero] * r
    for l in range(r):
        total = ring.zero
        for i, hc in enumerate(h_vec):
            if not hc:
                continue
            for j, fc in enumerate(f_vec):
                if not fc:
                    continue
                c = mult[j][column(l, i, r)]
                if c:
                    total = ring.add(total, ring.mul(ring.mul(hc, fc), c))
        out[l] = total
    return tuple(out)


def dense(domain, codomain, rows):
    """A :class:`DenseMap` over exactly ``rows``, with no re-canonicalisation."""
    return DenseMap._raw(domain, codomain, rows)


def compose(f, g):
    """f ∘ g by the triple loop over dense matrices."""
    ring = f.ring
    rows = []
    for i in range(f.codomain.rank):
        row = []
        for j in range(g.domain.rank):
            acc = ring.zero
            for k in range(f.domain.rank):
                acc = ring.add(acc, ring.mul(f.matrix[i][k], g.matrix[k][j]))
            row.append(acc)
        rows.append(row)
    return dense(g.domain, f.codomain, rows)


def kron(f, g):
    """(f⊗g)[(i1,i2),(j1,j2)] = f[i1][j1]·g[i2][j2], entry by entry."""
    ring = f.ring
    rows = [[ring.mul(f.matrix[i1][j1], g.matrix[i2][j2])
             for j1 in range(f.domain.rank) for j2 in range(g.domain.rank)]
            for i1 in range(f.codomain.rank) for i2 in range(g.codomain.rank)]
    return dense(tensor_module(f.domain, g.domain),
                 tensor_module(f.codomain, g.codomain), rows)


def identity(module):
    ring = module.ring
    return dense(module, module,
                 [[ring.one if i == j else ring.zero for j in range(module.rank)]
                  for i in range(module.rank)])


def twist(m, n):
    """The permutation matrix of e_i⊗f_j ↦ f_j⊗e_i."""
    ring = m.ring
    rows = [[ring.zero] * (m.rank * n.rank) for _ in range(m.rank * n.rank)]
    for i in range(m.rank):
        for j in range(n.rank):
            rows[j * m.rank + i][i * n.rank + j] = ring.one
    return dense(tensor_module(m, n), tensor_module(n, m), rows)


def middle_twist(a, b, c, d):
    """id⊗τ⊗id: A⊗B⊗C⊗D → A⊗C⊗B⊗D."""
    return kron(kron(identity(a), twist(b, c)), identity(d))


def tensor_mult(a, b):
    """kron(a.mult, b.mult) @ (id⊗τ⊗id)."""
    return compose(kron(a.mult, b.mult),
                   middle_twist(a.carrier, b.carrier, a.carrier, b.carrier))


def tensor_comult(c, d):
    """(id⊗τ⊗id) @ kron(c.comult, d.comult)."""
    return compose(middle_twist(c.carrier, c.carrier, d.carrier, d.carrier),
                   kron(c.comult, d.comult))


def opposite_mult(a):
    """mult @ twist."""
    return compose(a.mult, twist(a.carrier, a.carrier))


def co_opposite_comult(c):
    """twist @ comult."""
    return compose(twist(c.carrier, c.carrier), c.comult)


def hom_map(vec, source, target):
    """The map C → A whose row-major flattening is ``vec``."""
    r = source.rank
    return dense(source, target,
                 [vec[i * r:(i + 1) * r] for i in range(target.rank)])


def convolve(source, target, f_vec, g_vec):
    """mult @ kron(F, G) @ Δ, flattened row-major."""
    F = hom_map(f_vec, source.carrier, target.carrier)
    G = hom_map(g_vec, source.carrier, target.carrier)
    comp = compose(compose(target.mult, kron(F, G)), source.comult)
    return tuple(x for row in comp.matrix for x in row)


def assert_bit_identical(got, want):
    """Same shape, same entries of the same types, and a sparse-column cache
    that matches the dense matrix."""
    assert (got.domain.rank, got.codomain.rank) == (want.domain.rank,
                                                    want.codomain.rank)
    assert got.matrix == want.matrix
    assert [type(x) for row in got.matrix for x in row] == \
        [type(x) for row in want.matrix for x in row]
    derived = tuple(tuple((i, got.matrix[i][j]) for i in range(got.codomain.rank)
                          if got.matrix[i][j])
                    for j in range(got.domain.rank))
    assert got.sparse_columns() == derived


# --- duality maps γ and δ, term by term ----------------------------------------


def gamma_map(cp, U, side):
    """γ((a#h)#f) on the one-sided representation.

    Right: (k⊗1) ↦ Σ h₄(f⇀k₃) ⊗ [S̄(h₃k₂)a]σ(S̄(h₂k₁)⊗h₁)
    Op:    (1⊗k) ↦ Σ [k₁a]σ(k₂⊗h₁) ⊗ (f⇀k₃)h₂
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA, rU = b.rank, A.rank, U.rank
    sigma = cp.cocycle.sigma
    dom = tensor_module(cp.carrier, U.module)
    cod = end_rep_module(h, A, side)
    Sb = h.twisted_antipode
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            for l in range(rU):
                f = u_dense(U)[l]
                out = [ring.zero] * cod.rank
                for t in range(rH):
                    if side is DiagramSide.RIGHT:
                        for ch, (h1, h2, h3, h4) in b.coalgebra.sweedler_basis(j, 4):
                            for ck, (k1, k2, k3, k4) in b.coalgebra.sweedler_basis(t, 4):
                                c = ring.mul(ring.mul(ch, ck), f[k4])
                                if not (c):
                                    continue
                                hpart = b.algebra.product(
                                    b.carrier.basis_vector(h4),
                                    b.carrier.basis_vector(k3))
                                h3k2 = b.algebra.product(
                                    b.carrier.basis_vector(h3),
                                    b.carrier.basis_vector(k2))
                                h2k1 = b.algebra.product(
                                    b.carrier.basis_vector(h2),
                                    b.carrier.basis_vector(k1))
                                acted = act(cp.action, Sb.apply(h3k2), a_i)
                                sig = sigma.apply(kron_vec(
                                    ring, Sb.apply(h2k1),
                                    b.carrier.basis_vector(h1)))
                                apart = A.product(acted, sig)
                                _scatter(out, ring, c, hpart, apart, rA, rH, t,
                                         h_first=True)
                    else:
                        for ch, (h1, h2) in b.coalgebra.sweedler_basis(j, 2):
                            for ck, (k1, k2, k3, k4) in b.coalgebra.sweedler_basis(t, 4):
                                c = ring.mul(ring.mul(ch, ck), f[k4])
                                if not (c):
                                    continue
                                acted = act_basis(cp.action, k1, a_i)
                                sig = sigma.apply(kron_vec(
                                    ring, b.carrier.basis_vector(k2),
                                    b.carrier.basis_vector(h1)))
                                apart = A.product(acted, sig)
                                hpart = b.algebra.product(
                                    b.carrier.basis_vector(k3),
                                    b.carrier.basis_vector(h2))
                                _scatter(out, ring, c, hpart, apart, rA, rH, t,
                                         h_first=False)
                cols.append(tuple(out))
    return map_from_columns(dom, cod, cols)


def _scatter(out, ring, c, hpart, apart, rA, rH, t, h_first):
    for hp, hv in enumerate(hpart):
        if not (hv):
            continue
        for ap, av in enumerate(apart):
            if not (av):
                continue
            val = ring.mul(c, ring.mul(hv, av))
            pos = ((hp * rA + ap) if h_first else (ap * rH + hp)) * rH + t
            out[pos] = ring.add(out[pos], val)


def delta_map(cp, U, side):
    """δ(a⊗(h#f)) ∈ Hom(H, A#_σH) by direct Sweedler expansion.

    Right: k ↦ Σ σ⁻¹(h₂k₄⊗S̄(h₁k₃))[(h₃k₅)a]σ(h₄k₆⊗S̄(k₂)) # h₅(f⇀k₇)S̄(k₁)
    Op:    k ↦ Σ σ⁻¹(S(k₄)⊗k₅)[S(k₃)a]σ(S(k₂)⊗k₆h₁) # S(k₁)(f⇀k₇)h₂
    """
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA, rU = b.rank, A.rank, U.rank
    sigma, sigma_inv = cp.cocycle.sigma, cp.cocycle.sigma_inv
    Sb, S = h.twisted_antipode, h.antipode
    dom = tensor_module(A.carrier, tensor_module(b.carrier, U.module))
    cod = hom_module(b.carrier, cp.carrier)
    halg = b.algebra
    basis = b.carrier.basis_vector
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            for l in range(rU):
                f = u_dense(U)[l]
                out = [ring.zero] * cod.rank
                for t in range(rH):
                    for ck, klegs in b.coalgebra.sweedler_basis(t, 8):
                        k1, k2, k3, k4, k5, k6, k7, k8 = klegs
                        cf = ring.mul(ck, f[k8])
                        if not (cf):
                            continue
                        if side is DiagramSide.RIGHT:
                            for ch, hlegs in b.coalgebra.sweedler_basis(j, 5):
                                h1, h2, h3, h4, h5 = hlegs
                                c = ring.mul(cf, ch)
                                s1 = sigma_inv.apply(kron_vec(
                                    ring, halg.product(basis(h2), basis(k4)),
                                    Sb.apply(halg.product(basis(h1), basis(k3)))))
                                acted = act(cp.action,
                                    halg.product(basis(h3), basis(k5)), a_i)
                                s2 = sigma.apply(kron_vec(
                                    ring, halg.product(basis(h4), basis(k6)),
                                    Sb.column(k2)))
                                apart = A.product(A.product(s1, acted), s2)
                                hpart = halg.product(
                                    halg.product(basis(h5), basis(k7)),
                                    Sb.column(k1))
                                _scatter_hom(out, ring, c, apart, hpart, rH, t)
                        else:
                            for ch, (h1, h2) in b.coalgebra.sweedler_basis(j, 2):
                                c = ring.mul(cf, ch)
                                s1 = sigma_inv.apply(kron_vec(
                                    ring, S.column(k4), basis(k5)))
                                acted = act(cp.action, S.column(k3), a_i)
                                s2 = sigma.apply(kron_vec(
                                    ring, S.column(k2),
                                    halg.product(basis(k6), basis(h1))))
                                apart = A.product(A.product(s1, acted), s2)
                                hpart = halg.product(
                                    halg.product(S.column(k1), basis(k7)),
                                    basis(h2))
                                _scatter_hom(out, ring, c, apart, hpart, rH, t)
                cols.append(tuple(out))
    return map_from_columns(dom, cod, cols)


def _scatter_hom(out, ring, c, apart, hpart, rH, t):
    # B = A⊗H flattening inside Hom(H, B): position ((a·rH + h)·rH + t)
    for ap, av in enumerate(apart):
        if not (av):
            continue
        for hp, hv in enumerate(hpart):
            if not (hv):
                continue
            pos = (ap * rH + hp) * rH + t
            out[pos] = ring.add(out[pos], ring.mul(c, ring.mul(av, hv)))


def nu_map(cp):
    """ν: A#_σH → H⊗A, a#h ↦ Σ h₄ ⊗ [S̄(h₃)a]σ(S̄(h₂)⊗h₁), one dense action,
    σ-evaluation and A-product per term."""
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA = b.rank, A.rank
    Sb = h.twisted_antipode
    sigma = cp.cocycle.sigma
    cod = tensor_module(b.carrier, A.carrier)
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            out = [ring.zero] * cod.rank
            for c, (h1, h2, h3, h4) in b.coalgebra.sweedler_basis(j, 4):
                acted = act(cp.action, Sb.column(h3), a_i)
                sig = sigma.apply(kron_vec(ring, Sb.column(h2),
                                           b.carrier.basis_vector(h1)))
                apart = A.product(acted, sig)
                for aidx, av in enumerate(apart):
                    if not (av):
                        continue
                    pos = h4 * rA + aidx
                    out[pos] = ring.add(out[pos], ring.mul(c, av))
            cols.append(tuple(out))
    return map_from_columns(cp.carrier, cod, cols)


def pi_map(cp, side, g_left=True):
    """π(g)(k⊗1) = Σ ν( g(k₅)·(σ⁻¹(k₂⊗S̄(k₁))(k₃⇀1)#k₄) ) (right, with ν the
    oracle above), π̄(g)(1⊗k) = Σ (1#k₁)·g(k₂) (op), term by term and g by
    g.  On the right the product is taken with g(k₅) on the left
    (``g_left``) or on the right."""
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH = b.rank
    B = cp.product_algebra
    basis = b.carrier.basis_vector
    cod = end_rep_module(h, A, side)
    nu = nu_map(cp) if side is DiagramSide.RIGHT else None
    Sb = h.twisted_antipode
    cols = []
    for gi in range(cp.carrier.rank):
        g_val = cp.carrier.basis_vector(gi)
        for gj in range(rH):
            out = [ring.zero] * cod.rank
            for t in range(rH):
                if side is DiagramSide.RIGHT:
                    total = zero_vector(tensor_module(b.carrier, A.carrier))
                    for c, (k1, k2, k3, k4, k5) in b.coalgebra.sweedler_basis(t, 5):
                        if k5 != gj:
                            continue
                        s = cp.cocycle.sigma_inv.apply(kron_vec(ring, basis(k2),
                                                                Sb.column(k1)))
                        elem = kron_vec(ring, A.product(s, act_basis(cp.action, k3, A.unit)),
                                        basis(k4))
                        prod = B.product(g_val, elem) if g_left else B.product(elem, g_val)
                        total = vec_add(ring, total, vec_scale(ring, c, nu.apply(prod)))
                else:
                    total = zero_vector(cp.carrier)
                    for c, (k1, k2) in b.coalgebra.sweedler_basis(t, 2):
                        if k2 != gj:
                            continue
                        one_k = kron_vec(ring, A.unit, basis(k1))
                        total = vec_add(ring, total,
                                        vec_scale(ring, c, B.product(one_k, g_val)))
                scatter_value(out, ring, total, rH, t)
            cols.append(tuple(out))
    return map_from_columns(hom_module(b.carrier, cp.carrier), cod, cols)


def chi_map(hopf, A, U, side):
    """χ(a⊗(h#f)) = [k⊗ã ↦ h(f⇀k)⊗aã] (right) or [ã⊗k ↦ ãa⊗(f⇀k)h] (op),
    with f⇀k and the H-product recomputed for every column."""
    b = hopf.bialgebra
    ring = b.ring
    rH, rA, rU = b.rank, A.rank, U.rank
    dom = tensor_module(A.carrier, tensor_module(b.carrier, U.module))
    cod = end_rep_module(hopf, A, side)
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            h_j = b.carrier.basis_vector(j)
            for l in range(rU):
                out = [ring.zero] * cod.rank
                for t in range(rH):
                    moved = hit(b, u_dense(U)[l], t)
                    if side is DiagramSide.RIGHT:
                        val = kron_vec(ring, b.algebra.product(h_j, moved), a_i)
                    else:
                        val = kron_vec(ring, a_i, b.algebra.product(moved, h_j))
                    scatter_value(out, ring, val, rH, t)
                cols.append(tuple(out))
    return map_from_columns(dom, cod, cols)


def _sweedler_columns(b, vals, rank, algebra, pair, k_of):
    """Columns (i, j) of a map out of Hom(H, vals): the value at h_t is
    Σ c·algebra.product(*pair(v_i, k_of(t₁))) over the terms c·h_t₁⊗h_t₂ of
    Δ(h_t) with t₂ = j, the whole of Δ(h_t) scanned for every j."""
    ring = b.ring
    cols = []
    for i in range(vals.rank):
        v = vals.basis_vector(i)
        for j in range(b.rank):
            out = [ring.zero] * rank
            for t in range(b.rank):
                acc = zero_vector(algebra.carrier)
                for c, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
                    if t2 == j:
                        acc = vec_add(ring, acc, vec_scale(
                            ring, c, algebra.product(*pair(v, k_of(t1)))))
                scatter_value(out, ring, acc, b.rank, t)
            cols.append(tuple(out))
    return cols


def phi_maps(h, side):
    """(φ₁, φ₂) (right) or (φ̄₁, φ̄₂) (op) from the columns above, uncertified."""
    b = h.bialgebra
    end_mod = hom_module(b.carrier, b.carrier)
    anti = h.twisted_antipode if side is DiagramSide.RIGHT else h.antipode
    pair = ((lambda x, k: (x, k)) if side is DiagramSide.RIGHT
            else (lambda x, k: (k, x)))
    return tuple(map_from_columns(end_mod, end_mod, _sweedler_columns(
        b, b.carrier, end_mod.rank, b.algebra, pair, k_of))
        for k_of in (b.carrier.basis_vector, anti.column))


def epsilon_maps(h, A, side):
    """(ε, ε⁻¹) (right) or (ε̄, ε̄⁻¹) (op) from the columns above, uncertified."""
    b = h.bialgebra
    ring = b.ring
    hom_src = hom_module(b.carrier, tensor_module(A.carrier, b.carrier))
    end_mod = end_rep_module(h, A, side)
    ah = tensor_algebra(A, b.algebra)
    sw_ha_to_ah = twist_map(b.carrier, A.carrier)
    anti = h.twisted_antipode if side is DiagramSide.RIGHT else h.antipode
    target = (tensor_module(b.carrier, A.carrier) if side is DiagramSide.RIGHT
              else tensor_module(A.carrier, b.carrier))
    if side is DiagramSide.RIGHT:
        alg, swap = tensor_algebra(b.algebra, A), twist_map(A.carrier, b.carrier)
        eps_pair = lambda g, k: (swap.apply(g), kron_vec(ring, k, A.unit))
        inv_pair = lambda f, k: (sw_ha_to_ah.apply(f), k)
    else:
        alg = ah
        eps_pair = lambda g, k: (kron_vec(ring, A.unit, k), g)
        inv_pair = lambda f, k: (k, f)
    eps = map_from_columns(hom_src, end_mod, _sweedler_columns(
        b, tensor_module(A.carrier, b.carrier), end_mod.rank, alg, eps_pair,
        b.carrier.basis_vector))
    eps_inv = map_from_columns(end_mod, hom_src, _sweedler_columns(
        b, target, hom_src.rank, ah, inv_pair,
        lambda t1: kron_vec(ring, A.unit, anti.column(t1))))
    return eps, eps_inv


# --- the associativity certificate and the smash builders, term by term ------


def product_items(alg, items_u, items_v) -> dict:
    """Sparse product of sparse vectors (lists of (index, coeff))."""
    ring = alg.ring
    r = alg.rank
    cols = alg.mult.sparse_columns()
    mul, add = ring.mul, ring.add
    acc = {}
    for i, a in items_u:
        base = i * r
        for j, b in items_v:
            col = cols[base + j]
            if not col:
                continue
            ab = mul(a, b)
            for t, c in col:
                prev = acc.get(t)
                acc[t] = mul(c, ab) if prev is None else add(prev, mul(c, ab))
    return {t: v for t, v in acc.items() if v}


def validate_algebra(alg, subject="algebra"):
    """``AlgebraData.validate``: both products of every basis triple built
    as sparse dicts, then the two-sided unit law."""
    rep = ValidationReport(subject)
    r = alg.rank
    labels = alg.carrier.labels
    witness = None
    cols = alg.mult.sparse_columns()
    for i in range(r):
        for j in range(r):
            ij = cols[i * r + j]
            for k in range(r):
                lhs = product_items(alg, ij, ((k, alg.ring.one),))
                rhs = product_items(alg, ((i, alg.ring.one),), cols[j * r + k])
                if lhs != rhs:
                    witness = f"({labels[i]},{labels[j]},{labels[k]})"
                    break
            if witness:
                break
        if witness:
            break
    rep.add("algebra.assoc", "multiplication is associative", witness is None, witness)
    witness = None
    for i in range(r):
        e = alg.carrier.basis_vector(i)
        if alg.product(alg.unit, e) != e or alg.product(e, alg.unit) != e:
            witness = labels[i]
            break
    rep.add("algebra.unit", "two-sided unit law", witness is None, witness)
    return rep


def algebra_morphism_witness(source, target, map_):
    """``hopf.algebra_morphism_witness``: the unit, then per basis pair
    map(e_ie_j) as the dense image of the expanded product against
    map(e_i)map(e_j) as a sparse-dict product."""
    if map_.domain.rank != source.rank or map_.codomain.rank != target.rank:
        raise DimensionMismatch("map shape does not match the algebras")
    if map_.apply(source.unit) != target.unit:
        return "1"
    r = source.rank
    ring = source.ring
    images = map_.sparse_columns()
    for i in range(r):
        for j in range(r):
            lhs = map_.apply(expand_sparse(source.basis_product(i, j), r, ring))
            lhs_items = {t: v for t, v in enumerate(lhs) if v}
            rhs = product_items(target, images[i], images[j])
            if lhs_items != rhs:
                return f"({source.carrier.labels[i]},{source.carrier.labels[j]})"
    return None


# --- the axiom validators as Kronecker composites ----------------------------


def product_labels(*modules):
    """Every name ``(x,y,…)`` of the flattened basis of a tensor product."""
    return [f"({','.join(parts)})" for parts in product(*(m.labels for m in modules))]


def map_witness(a, b, labels):
    """The label of the first column where the maps ``a`` and ``b`` differ
    (``column j`` past the end of ``labels``), ``shape`` when only their
    shapes or rings differ, None when they are equal."""
    if a == b:
        return None
    for j, (x, y) in enumerate(zip(a.sparse_columns(), b.sparse_columns())):
        if x != y:
            return labels[j] if j < len(labels) else f"column {j}"
    return "shape"


def validate_coalgebra(c, subject="coalgebra"):
    """``CoalgebraData.validate``: (Δ⊗id)∘Δ, (id⊗Δ)∘Δ and the counit laws
    as composites with Kronecker products."""
    rep = ValidationReport(subject)
    ident = LinearMap.identity(c.carrier)
    lhs = linalg.kron(c.comult, ident) @ c.comult
    rhs = linalg.kron(ident, c.comult) @ c.comult
    witness = map_witness(lhs, rhs, c.carrier.labels)
    rep.add("coalgebra.coassoc", "comultiplication is coassociative",
            witness is None, witness)
    left = linalg.kron(c.counit, ident) @ c.comult
    right = linalg.kron(ident, c.counit) @ c.comult
    w1 = map_witness(left, ident, c.carrier.labels)
    w2 = map_witness(right, ident, c.carrier.labels)
    rep.add("coalgebra.counit", "counit laws hold", w1 is None and w2 is None,
            w1 or w2)
    return rep


def validate_bialgebra(b, subject="bialgebra"):
    """``BialgebraData.validate``: Δ∘m against m_{H⊗H}∘(Δ⊗Δ) through the
    tensor algebra, ε∘m against ε⊗ε."""
    rep = ValidationReport(subject)
    rep.extend(b.algebra.validate(subject))
    rep.extend(validate_coalgebra(b.coalgebra, subject))
    pairs = product_labels(b.carrier, b.carrier)
    mult, comult = b.algebra.mult, b.coalgebra.comult
    counit = b.coalgebra.counit
    mult_hh = tensor_algebra(b.algebra, b.algebra).mult
    w = map_witness(comult @ mult, mult_hh @ linalg.kron(comult, comult), pairs)
    rep.add("bialgebra.comult_mult", "comultiplication is multiplicative", w is None, w)
    w = map_witness(counit @ mult, linalg.kron(counit, counit), pairs)
    rep.add("bialgebra.counit_mult", "counit is multiplicative", w is None, w)
    one = b.algebra.unit
    ok = b.coalgebra.comult.apply(one) == kron_vec(b.ring, one, one)
    ok = ok and b.ring.is_one(b.coalgebra.counit_scalar(one))
    rep.add("bialgebra.unit_grouplike", "Δ(1)=1⊗1 and ε(1)=1", ok,
            None if ok else "1")
    return rep


def validate_hopf(h, subject="hopf"):
    """``HopfData.validate``: m∘(S⊗id)∘Δ and m∘(id⊗S)∘Δ against η∘ε, the
    twisted antipode the same way over τ∘Δ, and :func:`anti_morphism_checks`."""
    rep = validate_bialgebra(h.bialgebra, subject)
    H = h.carrier
    ident = LinearMap.identity(H)
    mult = h.algebra.mult
    comult = h.coalgebra.comult
    unit_map = map_from_columns(unit_module(h.ring), H, [h.algebra.unit])
    eta_eps = unit_map @ h.coalgebra.counit
    mult_op = h.algebra.opposite().mult
    comult_cop = h.coalgebra.co_opposite().comult
    S = h.antipode
    lhs = mult @ linalg.kron(S, ident) @ comult
    rhs = mult @ linalg.kron(ident, S) @ comult
    w = map_witness(lhs, eta_eps, H.labels) or map_witness(rhs, eta_eps, H.labels)
    rep.add("hopf.antipode", "Σ S(h₁)h₂ = ε(h)1 = Σ h₁S(h₂)", w is None, w)
    rep.extend(anti_morphism_checks(h, S, mult_op, comult_cop,
                                    "hopf.antipode_anti", "antipode"))
    Sb = h.twisted_antipode
    lhs = mult @ linalg.kron(Sb, ident) @ comult_cop
    rhs = mult @ linalg.kron(ident, Sb) @ comult_cop
    w = map_witness(lhs, eta_eps, H.labels) or map_witness(rhs, eta_eps, H.labels)
    rep.add("hopf.twisted_antipode", "Σ S̄(h₂)h₁ = ε(h)1 = Σ h₂S̄(h₁)",
            w is None, w)
    rep.extend(anti_morphism_checks(h, Sb, mult_op, comult_cop,
                                    "hopf.twisted_anti", "twisted antipode"))
    return rep


def anti_morphism_checks(h, S, mult_op, comult_cop, prefix, name):
    """S∘m = m^op∘(S⊗S) and Δ∘S = (S⊗S)∘Δ^cop as maps, plus the unit and
    counit."""
    rep = ValidationReport()
    mult, comult = h.algebra.mult, h.coalgebra.comult
    alg_anti = (S @ mult) == (mult_op @ linalg.kron(S, S))
    unit_ok = S.apply(h.algebra.unit) == h.algebra.unit
    rep.add(f"{prefix}.algebra", f"{name} is an algebra anti-morphism",
            alg_anti and unit_ok)
    coalg_anti = (comult @ S) == (linalg.kron(S, S) @ comult_cop)
    counit_ok = (h.coalgebra.counit @ S) == h.coalgebra.counit
    rep.add(f"{prefix}.coalgebra", f"{name} is a coalgebra anti-morphism",
            coalg_anti and counit_ok)
    return rep


def validate_comodule_algebra(c, subject="comodule algebra"):
    """``ComoduleAlgebraData.validate``: (ϱ⊗id)∘ϱ, (id⊗Δ)∘ϱ, (id⊗ε)∘ϱ and
    ϱ∘m against m_{B⊗H}∘(ϱ⊗ϱ) through the tensor algebra."""
    rep = ValidationReport(subject)
    b = c.bialgebra
    B = c.algebra
    idb = LinearMap.identity(B.carrier)
    idh = LinearMap.identity(b.carrier)
    lhs = linalg.kron(c.coaction, idh) @ c.coaction
    rhs = linalg.kron(idb, b.coalgebra.comult) @ c.coaction
    rep.add("comodule.coassoc", "(ϱ⊗id)∘ϱ = (id⊗Δ)∘ϱ", lhs == rhs,
            map_witness(lhs, rhs, B.carrier.labels))
    counit_side = linalg.kron(idb, b.coalgebra.counit) @ c.coaction
    rep.add("comodule.counit", "(id⊗ε)∘ϱ = id", counit_side == idb,
            map_witness(counit_side, idb, B.carrier.labels))
    bh = tensor_algebra(B, b.algebra)
    lhs2 = c.coaction @ B.mult
    rhs2 = bh.mult @ linalg.kron(c.coaction, c.coaction)
    witness = map_witness(lhs2, rhs2, product_labels(B.carrier, B.carrier))
    rep.add("comodule.multiplicative", "ϱ is an algebra morphism",
            witness is None, witness)
    ok = c.coaction.apply(B.unit) == kron_vec(c.ring, B.unit, b.algebra.unit)
    rep.add("comodule.unit", "ϱ(1) = 1⊗1", ok, None if ok else "1")
    return rep


def validate_weak_action(w, subject="weak action"):
    """``actions.validate_weak_action``: the unit laws on dense vectors, and
    measuring as act∘(id⊗m) against m∘(act⊗act)∘:func:`spread_coproduct`."""
    rep = ValidationReport(subject)
    b = w.bialgebra
    A = w.algebra
    ring = w.ring
    rH, rA = b.rank, A.rank
    witness = None
    for j in range(rA):
        e = A.carrier.basis_vector(j)
        if act(w, b.algebra.unit, e) != e:
            witness = A.carrier.labels[j]
            break
    rep.add("action.unit_acts", "1_H ⇀ a = a", witness is None, witness)
    eps = b.coalgebra.counit.matrix[0]
    witness = next((b.carrier.labels[i] for i in range(rH)
                    if act(w, b.carrier.basis_vector(i), A.unit)
                    != vec_scale(ring, eps[i], A.unit)), None)
    rep.add("action.unit_target", "h ⇀ 1_A = ε(h)1_A", witness is None, witness)
    lhs = w.action @ linalg.kron(LinearMap.identity(b.carrier), A.mult)
    rhs = A.mult @ linalg.kron(w.action, w.action) @ spread_coproduct(b, A)
    witness = map_witness(lhs, rhs, product_labels(b.carrier, A.carrier, A.carrier))
    rep.add("action.measuring", "h ⇀ (ab) = Σ(h₁⇀a)(h₂⇀b)", witness is None, witness)
    return rep


def spread_coproduct(b, A):
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


def coact_terms(B, i):
    """ϱ(b_i) as (b-index, h-index, coefficient) triples."""
    rH = B.bialgebra.rank
    return [(flat // rH, flat % rH, c) for flat, c in B.coaction.sparse_columns()[i]]


def hat_smash(hopf, B):
    """The #(H,B) structure constants, one Sweedler and coaction term at a
    time, every B-product recomputed (not validated)."""
    b = hopf.bialgebra
    ring = b.ring
    rH, rB = b.rank, B.algebra.rank
    carrier = hom_module(b.carrier, B.algebra.carrier)
    coalg = b.coalgebra
    cols = []
    for fi in range(rB):          # f = [h_fj ↦ b_fi]
        for fj in range(rH):
            for gi in range(rB):  # g = [h_gj ↦ b_gi]
                for gj in range(rH):
                    out = [ring.zero] * carrier.rank
                    for t in range(rH):
                        val = zero_vector(B.algebra.carrier)
                        for c, (t1, t2) in coalg.sweedler_basis(t, 2):
                            if t2 != gj:
                                continue
                            for b0, b1, cc in coact_terms(B, gi):
                                # f(b₍₁₎·h₁) · b₍₀₎
                                coeff_f = b.algebra.mult.matrix[fj][b1 * rH + t1]
                                if not (coeff_f):
                                    continue
                                term = B.algebra.product(
                                    B.algebra.carrier.basis_vector(fi),
                                    B.algebra.carrier.basis_vector(b0))
                                scale = ring.mul(ring.mul(c, cc), coeff_f)
                                val = vec_add(ring, val,
                                              vec_scale(ring, scale, term))
                        for bidx, bv in enumerate(val):
                            if (bv):
                                out[bidx * rH + t] = ring.add(out[bidx * rH + t], bv)
                    cols.append(tuple(out))
    mult = map_from_columns(tensor_module(carrier, carrier), carrier, cols)
    unit = [ring.zero] * carrier.rank
    for bidx, bv in enumerate(B.algebra.unit):
        for t in range(rH):
            e = coalg.counit_scalar(b.carrier.basis_vector(t))
            unit[bidx * rH + t] = ring.mul(bv, e)
    return AlgebraData(carrier, mult, unit)


def op_hat_smash(hopf, B):
    """The #^op(H,B) structure constants, term by term (not validated)."""
    b = hopf.bialgebra
    ring = b.ring
    rH = b.rank
    carrier = hom_module(b.carrier, B.algebra.carrier)
    coalg = b.coalgebra
    rB = B.algebra.rank
    cols = []
    for fi in range(rB):
        for fj in range(rH):
            for gi in range(rB):
                for gj in range(rH):
                    out = [ring.zero] * carrier.rank
                    for t in range(rH):
                        val = zero_vector(B.algebra.carrier)
                        for c, (t1, t2) in coalg.sweedler_basis(t, 2):
                            if t2 != fj:
                                continue
                            for b0, b1, cc in coact_terms(B, fi):
                                # f(h₂)₍₀₎ · g(h₁·f(h₂)₍₁₎)
                                coeff_g = b.algebra.mult.matrix[gj][t1 * rH + b1]
                                if not (coeff_g):
                                    continue
                                term = B.algebra.product(
                                    B.algebra.carrier.basis_vector(b0),
                                    B.algebra.carrier.basis_vector(gi))
                                scale = ring.mul(ring.mul(c, cc), coeff_g)
                                val = vec_add(ring, val,
                                              vec_scale(ring, scale, term))
                        for bidx, bv in enumerate(val):
                            if (bv):
                                out[bidx * rH + t] = ring.add(out[bidx * rH + t], bv)
                    cols.append(tuple(out))
    mult = map_from_columns(tensor_module(carrier, carrier), carrier, cols)
    return AlgebraData(carrier, mult, hat_smash(hopf, B).unit)


def coordinate_smash(B, U, op):
    """B#U (``op`` false) or B#^opU (``op`` true), every regular action,
    ⋆-product and U-coordinate recomputed per term (not validated)."""
    b = B.hopf.bialgebra
    ring = b.ring
    rB, rU = B.algebra.rank, U.rank
    carrier = tensor_module(B.algebra.carrier, U.module)
    dual = dual_algebra(U.hopf)
    cols = []
    for i in range(rB):
        b_i = B.algebra.carrier.basis_vector(i)
        for l in range(rU):
            for k in range(rB):
                for m in range(rU):
                    out = [ring.zero] * carrier.rank
                    if not op:
                        # Σ over ϱ(b̃): b·b̃₍₀₎ ⊗ (f·b̃₍₁₎)⋆f̃
                        for b0, b1, c in coact_terms(B, k):
                            bpart = B.algebra.product(
                                b_i, B.algebra.carrier.basis_vector(b0))
                            moved = regular_act_right(B.hopf, u_dense(U)[l],
                                                      b.carrier.basis_vector(b1))
                            upart = dual.product(moved, u_dense(U)[m])
                            _accumulate_smash(out, ring, c, bpart, upart, U, rU)
                    else:
                        # Σ over ϱ(b): b₍₀₎·b̃ ⊗ (b₍₁₎·f̃)⋆f
                        for b0, b1, c in coact_terms(B, i):
                            bpart = B.algebra.product(
                                B.algebra.carrier.basis_vector(b0),
                                B.algebra.carrier.basis_vector(k))
                            moved = regular_act_left(B.hopf, b.carrier.basis_vector(b1),
                                                     u_dense(U)[m])
                            upart = dual.product(moved, u_dense(U)[l])
                            _accumulate_smash(out, ring, c, bpart, upart, U, rU)
                    cols.append(tuple(out))
    mult = map_from_columns(tensor_module(carrier, carrier), carrier, cols)
    unit = kron_vec(ring, B.algebra.unit,
                    subalgebra_express(U, b.coalgebra.counit_values()))
    return AlgebraData(carrier, mult, unit)


def _accumulate_smash(out, ring, c, bpart, upart_ambient, U, rU):
    coords = subalgebra_express(U, upart_ambient)
    if coords is None:
        raise ValidationError("smash product left the span of U")
    for bidx, bv in enumerate(bpart):
        if not (bv):
            continue
        for uidx, uv in enumerate(coords):
            if not (uv):
                continue
            pos = bidx * rU + uidx
            out[pos] = ring.add(out[pos], ring.mul(ring.mul(c, bv), uv))


# --- the crossed layer, term by term -------------------------------------------


def subalgebra_express(U, vec):
    """Coordinates of the dense functional ``vec`` in the U-basis, or None if
    the U-combination of the split coordinates does not rebuild it: the
    dense P of :func:`split_coefficient_map` applied to ``vec``."""
    ring, rank = U.hopf.ring, U.hopf.rank
    coords = _subalgebra_split(U).apply(vec)
    recon = (ring.zero,) * rank
    for c, u in zip(coords, u_dense(U)):
        recon = vec_add(ring, recon, vec_scale(ring, c, u))
    return coords if recon == tuple(vec) else None


@cache
def _subalgebra_split(U):
    return split_coefficient_map(U.hopf.ring, u_dense(U), U.hopf.rank)


def subalgebra_closure(U):
    """(ε-coordinates, ⋆ witnesses, action witnesses) of U as dense tuples,
    as ``SubalgebraU`` solved them on dense functionals: u⋆v on the whole
    convolution table of H*, u·h_j by the triple-loop regular action of U's
    side, each expressed by :func:`subalgebra_express`."""
    b = U.hopf.bialgebra
    dual = dual_algebra(U.hopf)
    left = U.side is ModuleSide.LEFT
    us, basis = u_dense(U), b.carrier.basis_vector
    eps = subalgebra_express(U, b.coalgebra.counit_values())
    stars = {(i, j): subalgebra_express(U, dual.product(u, v))
             for i, u in enumerate(us) for j, v in enumerate(us)}
    actions = {(i, j): subalgebra_express(U, regular_act_left(U.hopf, basis(j), u) if left
                                          else regular_act_right(U.hopf, u, basis(j)))
               for i, u in enumerate(us) for j in range(b.rank)}
    return eps, stars, actions


def theta_inverse(cp):
    """θ⁻¹(h) = Σ σ⁻¹(S(h₂)⊗h₃) #_σ S(h₁) for θ(h) = 1#h, one dense
    σ⁻¹-evaluation and Kronecker product per term."""
    hopf = cp.action.hopf
    b = hopf.bialgebra
    ring = cp.ring
    S = hopf.antipode
    inv_cols = []
    for j in range(b.rank):
        out = [ring.zero] * cp.carrier.rank
        for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(j, 3):
            apart = cp.cocycle.sigma_inv.apply(
                kron_vec(ring, S.column(h2), b.carrier.basis_vector(h3)))
            term = kron_vec(ring, apart, S.column(h1))
            for pos, val in enumerate(term):
                if (val):
                    out[pos] = ring.add(out[pos], ring.mul(c, val))
        inv_cols.append(tuple(out))
    return map_from_columns(b.carrier, cp.carrier, inv_cols)


def _cleft_express(cl):
    """(B, H, coinvariants, their dense vectors, express) of the cleft data
    ``cl``: the library's coinvariant span and membership, whose sparse
    vectors are read and written here as dense tuples."""
    B_com = cl.comodule_algebra
    B, ring = B_com.algebra, B_com.ring
    coin = coinvariants(B_com)
    coordinates = coin.coordinates

    def express(vec):
        coords = coordinates(linalg.sparse_vector(vec))
        if coords is None:
            raise ValidationError("value escapes the coinvariants")
        return expand_sparse(coords, coin.rank, ring)
    vectors = [expand_sparse(v, B.rank, ring) for v in coin.vectors]
    return B, B_com.hopf, coin, vectors, express


def extracted_action_and_sigma(cl):
    """The action ha = Σ θ(h₁)aθ⁻¹(h₂) and σ(h⊗k) = Σ θ(h₁)θ(k₁)θ⁻¹(h₂k₂)
    in coinvariant coordinates, one dense B-product chain per term."""
    B, hopf, coin, vectors, express = _cleft_express(cl)
    b = hopf.bialgebra
    ring = B.ring
    rH = b.rank
    act_cols = []
    for i in range(rH):
        for j in range(coin.rank):
            val = zero_vector(B.carrier)
            for c, (h1, h2) in b.coalgebra.sweedler_basis(i, 2):
                term = product_many(B, cl.theta.column(h1), vectors[j],
                                      cl.theta_inv.column(h2))
                val = vec_add(ring, val, vec_scale(ring, c, term))
            act_cols.append(express(val))
    sig_cols = []
    for i in range(rH):
        for j in range(rH):
            val = zero_vector(B.carrier)
            for ci, (h1, h2) in b.coalgebra.sweedler_basis(i, 2):
                for cj, (k1, k2) in b.coalgebra.sweedler_basis(j, 2):
                    h2k2 = expand_sparse(b.algebra.basis_product(h2, k2), rH, ring)
                    term = product_many(B, cl.theta.column(h1), cl.theta.column(k1),
                                          cl.theta_inv.apply(h2k2))
                    val = vec_add(ring, val, vec_scale(ring, ring.mul(ci, cj), term))
            sig_cols.append(express(val))
    return (map_from_columns(tensor_module(b.carrier, coin.module), coin.module,
                                   act_cols),
            map_from_columns(tensor_module(b.carrier, b.carrier), coin.module,
                                   sig_cols))


def cleft_maps(cl):
    """φ̃(h⊗a)(h̃) = Σ θ(S̄(h̃₂)) a θ(h₁) θ⁻¹(S̄(h̃₁)h₂) and
    ψ̃(h⊗a)(h̃) = Σ θ⁻¹(S̄(h̃₃)) a θ(S̄(h̃₂)h₁) θ⁻¹(h̃₄S̄(h̃₁)h₂), with every
    θ-value and B-product recomputed for every term."""
    B, hopf, coin, vectors, express = _cleft_express(cl)
    b = hopf.bialgebra
    ring = B.ring
    rH, rA = b.rank, coin.rank
    Sbar = hopf.twisted_antipode
    basis = b.carrier.basis_vector

    def hmul(*vecs):
        out = b.algebra.unit
        for v in vecs:
            out = b.algebra.product(out, v)
        return out

    phi_cols, psi_cols = [], []
    for i in range(rH):
        for j in range(rA):
            a_vec = vectors[j]
            phi_out = [ring.zero] * (rA * rH)
            psi_out = [ring.zero] * (rA * rH)
            for t in range(rH):
                val = zero_vector(B.carrier)
                for ct, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
                    for ci, (h1, h2) in b.coalgebra.sweedler_basis(i, 2):
                        term = product_many(B, 
                            cl.theta.apply(Sbar.column(t2)), a_vec, cl.theta.column(h1),
                            cl.theta_inv.apply(hmul(Sbar.column(t1), basis(h2))))
                        val = vec_add(ring, val, vec_scale(ring, ring.mul(ct, ci), term))
                scatter_value(phi_out, ring, express(val), rH, t)
                val = zero_vector(B.carrier)
                for ct, (t1, t2, t3, t4) in b.coalgebra.sweedler_basis(t, 4):
                    for ci, (h1, h2) in b.coalgebra.sweedler_basis(i, 2):
                        term = product_many(B, 
                            cl.theta_inv.apply(Sbar.column(t3)), a_vec,
                            cl.theta.apply(hmul(Sbar.column(t2), basis(h1))),
                            cl.theta_inv.apply(hmul(basis(t4), Sbar.column(t1), basis(h2))))
                        val = vec_add(ring, val, vec_scale(ring, ring.mul(ct, ci), term))
                scatter_value(psi_out, ring, express(val), rH, t)
            phi_cols.append(tuple(phi_out))
            psi_cols.append(tuple(psi_out))
    dom = tensor_module(b.carrier, coin.module)
    hom = hom_module(b.carrier, coin.module)
    return (map_from_columns(dom, hom, phi_cols),
            map_from_columns(dom, hom, psi_cols))


def _sigma_basis(sigma, rH, rA, ring, i, j):
    return expand_sparse(sigma.sparse_columns()[i * rH + j], rA, ring)


def normality(action, sigma):
    """σ(h⊗1) = ε(h)1_A = σ(1⊗h) on every basis h."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    eps = b.coalgebra.counit_scalar
    one_h = b.algebra.unit

    def sig(u, v):
        return sigma.apply(kron_vec(ring, u, v))

    for i in range(b.rank):
        h = b.carrier.basis_vector(i)
        want = vec_scale(ring, eps(h), A.unit)
        if sig(h, one_h) != want or sig(one_h, h) != want:
            return False
    return True


def cocycle_identity(action, sigma):
    """Σ [h₁σ(k₁⊗l₁)]·σ(h₂⊗k₂l₂) = Σ σ(h₁⊗k₁)·σ(h₂k₂⊗l) on every basis
    triple, one dense product per Sweedler term."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    rH, rA = b.rank, A.rank
    coalg = b.coalgebra

    def sig(u, v):
        return sigma.apply(kron_vec(ring, u, v))

    for i in range(rH):
        for j in range(rH):
            for k in range(rH):
                lhs = zero_vector(A.carrier)
                for ch, (h1, h2) in coalg.sweedler_basis(i, 2):
                    for ck, (k1, k2) in coalg.sweedler_basis(j, 2):
                        for cl, (l1, l2) in coalg.sweedler_basis(k, 2):
                            c = ring.mul(ring.mul(ch, ck), cl)
                            skl = _sigma_basis(sigma, rH, rA, ring, k1, l1)
                            t1 = act_basis(action, h1, skl)
                            k2l2 = expand_sparse(b.algebra.basis_product(k2, l2),
                                                 rH, ring)
                            t2 = sig(b.carrier.basis_vector(h2), k2l2)
                            lhs = vec_add(ring, lhs,
                                          vec_scale(ring, c, A.product(t1, t2)))
                if lhs != _cocycle_rhs(action, sigma, i, j, k):
                    return False
    return True


def _cocycle_rhs(action, sigma, i, j, k):
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    rH, rA = b.rank, A.rank
    coalg = b.coalgebra
    rhs = zero_vector(A.carrier)
    for ch, (h1, h2) in coalg.sweedler_basis(i, 2):
        for ck, (k1, k2) in coalg.sweedler_basis(j, 2):
            c = ring.mul(ch, ck)
            s1 = _sigma_basis(sigma, rH, rA, ring, h1, k1)
            h2k2 = expand_sparse(b.algebra.basis_product(h2, k2), rH, ring)
            s2 = sigma.apply(kron_vec(ring, h2k2, b.carrier.basis_vector(k)))
            rhs = vec_add(ring, rhs, vec_scale(ring, c, A.product(s1, s2)))
    return rhs


def twisted_module_identity(action, sigma):
    """Σ h₁·(k₁·a)·σ(h₂⊗k₂) = Σ σ(h₁⊗k₁)·((h₂k₂)·a) on every basis (h, k, a)."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    rH, rA = b.rank, A.rank
    coalg = b.coalgebra
    for i in range(rH):
        for j in range(rH):
            for t in range(rA):
                a = A.carrier.basis_vector(t)
                lhs = zero_vector(A.carrier)
                rhs = zero_vector(A.carrier)
                for ch, (h1, h2) in coalg.sweedler_basis(i, 2):
                    for ck, (k1, k2) in coalg.sweedler_basis(j, 2):
                        c = ring.mul(ch, ck)
                        t1 = act_basis(action, h1, act_basis(action, k1, a))
                        s12 = _sigma_basis(sigma, rH, rA, ring, h2, k2)
                        lhs = vec_add(ring, lhs,
                                      vec_scale(ring, c, A.product(t1, s12)))
                        s1 = _sigma_basis(sigma, rH, rA, ring, h1, k1)
                        h2k2 = expand_sparse(b.algebra.basis_product(h2, k2), rH, ring)
                        t2 = act(action, h2k2, a)
                        rhs = vec_add(ring, rhs,
                                      vec_scale(ring, c, A.product(s1, t2)))
                if lhs != rhs:
                    return False
    return True


def cocycle_flags(action, sigma):
    return CocycleFlags(normality(action, sigma), cocycle_identity(action, sigma),
                        twisted_module_identity(action, sigma))


def crossed_table(action, sigma):
    """(a#h)(ã#h̃) = Σ a(h₁ã)σ(h₂⊗h̃₁) # h₃h̃₂, two dense A-products and one
    action per Sweedler term."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    rH, rA = b.rank, A.rank
    carrier = tensor_module(A.carrier, b.carrier)
    coalg = b.coalgebra
    rB = carrier.rank
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            for k in range(rA):
                a_k = A.carrier.basis_vector(k)
                for l in range(rH):
                    out = [ring.zero] * rB
                    for ch, (h1, h2, h3) in coalg.sweedler_basis(j, 3):
                        for cl, (l1, l2) in coalg.sweedler_basis(l, 2):
                            c = ring.mul(ch, cl)
                            apart = A.product(
                                A.product(a_i, act_basis(action, h1, a_k)),
                                _sigma_basis(sigma, rH, rA, ring, h2, l1))
                            for hidx, hc in b.algebra.basis_product(h3, l2):
                                cc = ring.mul(c, hc)
                                for aidx, ac in enumerate(apart):
                                    if not (ac):
                                        continue
                                    pos = aidx * rH + hidx
                                    out[pos] = ring.add(out[pos],
                                                        ring.mul(cc, ac))
                    cols.append(tuple(out))
    return map_from_columns(tensor_module(carrier, carrier), carrier, cols)


def left_smash_table(action):
    """(a#h)(ã#h̃) = Σ a(h₁ã) # h₂h̃, one dense A-product and one action per
    Sweedler term (the multiplication only: not compared, not validated)."""
    b = action.bialgebra
    A = action.algebra
    ring = action.ring
    rH, rA = b.rank, A.rank
    carrier = tensor_module(A.carrier, b.carrier)
    coalg = b.coalgebra
    cols = []
    for i in range(rA):
        a_i = A.carrier.basis_vector(i)
        for j in range(rH):
            for k in range(rA):
                a_k = A.carrier.basis_vector(k)
                for l in range(rH):
                    out = [ring.zero] * carrier.rank
                    for c, (h1, h2) in coalg.sweedler_basis(j, 2):
                        apart = A.product(a_i, act_basis(action, h1, a_k))
                        for hidx, hc in b.algebra.basis_product(h2, l):
                            cc = ring.mul(c, hc)
                            for aidx, av in enumerate(apart):
                                if not (av):
                                    continue
                                pos = aidx * rH + hidx
                                out[pos] = ring.add(out[pos], ring.mul(cc, av))
                    cols.append(tuple(out))
    return map_from_columns(tensor_module(carrier, carrier), carrier, cols)


def left_smash_indexed(action):
    """A#H's table as the library built it before it stopped rebuilding the
    crossed product: every (i, h₁, k) of a_i(h₁·a_k) cached as reached, every
    leg h₁ of Δ(h_j) summed whether or not a_i(h₁·a_k) is zero, and the table
    required to equal ``crossed.crossed_table`` with σ = η∘(ε⊗ε) (not
    validated)."""
    sigma = crossed.trivial_sigma(action)
    if not crossed.twisted_module_identity(action, sigma):
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
        return [(h1, linalg.combine_columns(ring, t)) for h1, t in by_h1.items()]

    @cache
    def apart(i, h1, k):  # a_i·(h₁·a_k)
        return linalg.combine_columns(ring, ((amul[i * rA + s], c)
                                             for s, c in act[h1 * rA + k]))

    table = [[terms(j, l) for l in range(rH)] for j in range(rH)]
    cols = []
    for i, j, k, l in product(range(rA), range(rH), range(rA), range(rH)):
        acc = {}
        for h1, hx in table[j][l]:
            for t, av in apart(i, h1, k):
                for x, hc in hx:
                    pos = t * rH + x
                    acc[pos] = add(acc.get(pos, zero), mul(av, hc))
        cols.append(linalg.sparse_column(acc))
    mult = LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)
    if mult != crossed.crossed_table(action, sigma):
        raise ValidationError(
            "left smash disagrees with the trivial-cocycle crossed product")
    return mult


def coordinate_smash_indexed(B, U, op):
    """B#U or B#^opU's table as the library built it before it read U's
    closure witnesses: the U-coordinates of (u_l·h_{b₁})⋆u_m (op:
    (h_{b₁}·u_m)⋆u_l) by one regular action, one ⋆-product and one
    ``express`` per (l, b₁, m) as reached (not validated)."""
    b = B.hopf.bialgebra
    ring = b.ring
    zero, mul, add = ring.zero, ring.mul, ring.add
    rB, rU = B.algebra.rank, U.rank
    carrier = tensor_module(B.algebra.carrier, U.module)
    bcols = B.algebra.mult.sparse_columns()
    coact = [linalg.legs(col, b.rank) for col in B.coaction.sparse_columns()]
    dual = dual_algebra(U.hopf)

    @cache
    def upart(l, b1, m):
        h1 = b.carrier.basis_vector(b1)
        moved = (regular_act_left(B.hopf, h1, u_dense(U)[m]) if op
                 else regular_act_right(B.hopf, u_dense(U)[l], h1))
        coords = subalgebra_express(U, dual.product(moved, u_dense(U)[l if op else m]))
        if coords is None:
            raise ValidationError("smash product left the span of U")
        return [(uidx, uv) for uidx, uv in enumerate(coords) if uv]

    cols = []
    for i, l, k, m in product(range(rB), range(rU), range(rB), range(rU)):
        acc = {}
        for b0, b1, c in coact[i] if op else coact[k]:
            ucoords = upart(l, b1, m)
            for bidx, bv in bcols[b0 * rB + k] if op else bcols[i * rB + b0]:
                cb = mul(c, bv)
                for uidx, uv in ucoords:
                    pos = bidx * rU + uidx
                    acc[pos] = add(acc.get(pos, zero), mul(cb, uv))
        cols.append(linalg.sparse_column(acc))
    return LinearMap.from_sparse_columns(tensor_module(carrier, carrier), carrier, cols)


def hit_action_of_dual(h):
    """The action map H*⊗H → H, f⇀k = Σ k₁f(k₂), column (δ_l, h_j) summed
    over the terms of Δ(h_j) whose second leg is h_l."""
    dual = dual_hopf(h)
    b = h.bialgebra
    ring = b.ring
    rH = b.rank
    cols = []
    for l in range(rH):       # f = δ_l
        for j in range(rH):   # k = h_j
            out = [ring.zero] * rH
            for c, (k1, k2) in b.coalgebra.sweedler_basis(j, 2):
                if k2 == l:
                    out[k1] = ring.add(out[k1], c)
            cols.append(tuple(out))
    return map_from_columns(tensor_module(dual.carrier, b.carrier),
                                  b.carrier, cols)


# --- the matrix-unit algebras, densely -----------------------------------------


def matrix_algebra(ring, n):
    """M_n(R): every one of the n⁴ columns written out, then canonicalised."""
    carrier = free_module(ring, [f"e[{i},{j}]" for i in range(n) for j in range(n)])
    cols = []
    zero, one = ring.zero, ring.one
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out = [zero] * (n * n)
                    if j == k:
                        out[i * n + l] = one
                    cols.append(tuple(out))
    mult = map_from_columns(tensor_module(carrier, carrier), carrier, cols)
    unit = tuple(one if (idx // n) == (idx % n) else zero for idx in range(n * n))
    return AlgebraData(carrier, mult, unit)


def endomorphism_algebra(module):
    """End_R(M): the M_n(R) table canonicalised again on the Hom(M, M) carrier."""
    base = matrix_algebra(module.ring, module.rank)
    carrier = hom_module(module, module)
    mult = LinearMap(tensor_module(carrier, carrier), carrier, base.mult.matrix)
    return AlgebraData(carrier, mult, base.unit)


# --- solving and inversion before the field path ---------------------------


class SolveStatus(Enum):
    UNIQUE = "unique"
    PARAMETRIC = "parametric"
    NO_SOLUTION = "no_solution"


@dataclass(frozen=True)
class SolveResult:
    """A dense solve's answer: its status, a particular solution (None when
    there is none) and the kernel's canonical dense generators."""

    status: SolveStatus
    particular: Optional[tuple]
    kernel_basis: tuple

    @property
    def solvable(self) -> bool:
        return self.status is not SolveStatus.NO_SOLUTION


class PreparedSolver:
    """The Smith-form solver that lifts every Z/n system, prime n included, to
    ``[A | n*I]`` over Z; Gaussian elimination over Q only.  Dense at both
    ends: it factors the dense rows, solves a dense right-hand side and
    returns a :class:`SolveResult` whose kernel it computes with every
    solvable answer."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [tuple(ring.of(x) for x in r) for r in rows]
        self.m = len(self.rows)
        self.k = len(self.rows[0]) if self.m else 0
        self._kernel = None
        if isinstance(ring, RationalRing):
            self._prepare_field()
        elif isinstance(ring, ModularRing):
            n = ring.n
            lifted = [list(r) + [n if i == j else 0 for j in range(self.m)]
                      for i, r in enumerate(self.rows)]
            self._U, self._D, self._V = smith_normal_form(lifted)
        else:
            self._U, self._D, self._V = smith_normal_form(self.rows)

    def _solve_snf(self, rhs):
        U, D = self._U, self._D
        m = len(U)
        cols = len(D[0]) if m else 0
        c = [sum(U[i][j] * rhs[j] for j in range(m)) for i in range(m)]
        r = min(m, cols)
        y = [0] * cols
        for i in range(m):
            d = D[i][i] if i < r else 0
            if d:
                if c[i] % d:
                    return None
                y[i] = c[i] // d
            elif c[i]:
                return None
        V = self._V
        return [sum(V[i][j] * y[j] for j in range(cols)) for i in range(cols)]

    def _snf_kernel_columns(self):
        D, V = self._D, self._V
        m = len(D)
        cols = len(D[0]) if m else len(V)
        r = min(m, cols)
        return [[V[i][j] for i in range(cols)]
                for j in range(cols) if j >= r or D[j][j] == 0]

    def _prepare_field(self):
        ring = self.ring
        R = [list(row) for row in self.rows]
        T = [[ring.one if i == j else ring.zero for j in range(self.m)]
             for i in range(self.m)]
        pivots = []
        r = 0
        for col in range(self.k):
            pivot = next((i for i in range(r, self.m) if R[i][col] != 0), None)
            if pivot is None:
                continue
            R[r], R[pivot] = R[pivot], R[r]
            T[r], T[pivot] = T[pivot], T[r]
            inv = ring.inv(R[r][col])
            R[r] = [ring.mul(inv, a) for a in R[r]]
            T[r] = [ring.mul(inv, a) for a in T[r]]
            for i in range(self.m):
                if i != r and R[i][col] != 0:
                    c = R[i][col]
                    R[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(R[i], R[r])]
                    T[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(T[i], T[r])]
            pivots.append(col)
            r += 1
            if r == self.m:
                break
        self._R, self._T, self._pivots = R, T, pivots

    def kernel(self):
        if self._kernel is not None:
            return self._kernel
        ring = self.ring
        if isinstance(ring, RationalRing):
            pivots = set(self._pivots)
            basis = []
            for col in range(self.k):
                if col in pivots:
                    continue
                vec = [ring.zero] * self.k
                vec[col] = ring.one
                for r, pc in enumerate(self._pivots):
                    vec[pc] = ring.neg(self._R[r][col])
                basis.append(tuple(vec))
        else:
            raw = self._snf_kernel_columns()
            if isinstance(ring, ModularRing):
                basis = [tuple(x % ring.n for x in v[: self.k]) for v in raw]
                basis = [v for v in basis if any(v)]
            else:
                basis = [tuple(v) for v in raw]
        self._kernel = canonical_span(self.ring, basis, self.k)
        return self._kernel

    def solve(self, rhs):
        rhs = [self.ring.of(x) for x in rhs]
        ring = self.ring
        particular = None
        if isinstance(ring, RationalRing):
            c = [ring.sum(ring.mul(a, b) for a, b in zip(self._T[i], rhs) if a and b)
                 for i in range(self.m)]
            npiv = len(self._pivots)
            if not any(c[i] != 0 for i in range(npiv, self.m)):
                x = [ring.zero] * self.k
                for r, pc in enumerate(self._pivots):
                    x[pc] = c[r]
                particular = tuple(x)
        else:
            sol = self._solve_snf([int(x) for x in rhs])
            if sol is not None:
                if isinstance(ring, ModularRing):
                    particular = tuple(x % ring.n for x in sol[: self.k])
                else:
                    particular = tuple(sol)
        if particular is None:
            return SolveResult(SolveStatus.NO_SOLUTION, None, ())
        kernel = self.kernel()
        status = SolveStatus.UNIQUE if not kernel else SolveStatus.PARAMETRIC
        return SolveResult(status, particular, kernel)


def invert_map(m):
    """The determinant first, then one solve per column of the solver above,
    then the two-sided check."""
    if m.domain.rank != m.codomain.rank:
        raise NotInvertible("cannot invert a non-square map")
    ring = m.ring
    det = determinant(m)
    if not ring.is_unit(det):
        raise NotInvertible(
            f"determinant {ring.show(det)} is not a unit in {ring!r}", determinant=det
        )
    n = m.domain.rank
    solver = PreparedSolver(ring, m.matrix)
    cols = []
    for j in range(n):
        rhs = [ring.one if i == j else ring.zero for i in range(n)]
        res = solver.solve(rhs)
        if not res.solvable:
            raise NotInvertible("no solution while inverting", determinant=det)
        cols.append(res.particular)
    inv = map_from_columns(m.codomain, m.domain, cols)
    ident = LinearMap.identity(m.domain)
    if inv @ m != ident or m @ inv != LinearMap.identity(m.codomain):
        raise NotInvertible("inverse verification failed", determinant=det)
    return inv


def duality_iso_map(diagram):
    """χ⁻¹∘γ of a checked duality diagram, χ inverted as a matrix."""
    return invert_map(diagram.chi) @ diagram.gamma


# --- the hypothesis layer, term by term ----------------------------------------


def submodule_membership(ring, generators, v):
    """Coefficients expressing ``v`` in the span of ``generators``, or None:
    the solver above built afresh on the generator matrix for this v."""
    v = tuple(ring.of(x) for x in v)
    gens = [tuple(ring.of(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != len(v):
            raise DimensionMismatch("generator/vector length mismatch")
    if not gens:
        return () if all(ring.is_zero(x) for x in v) else None
    rows = [[g[i] for g in gens] for i in range(len(v))]
    res = PreparedSolver(ring, rows).solve(v)
    return res.particular if res.solvable else None


def first_outside(ring, gens, m):
    """The first column of ``m`` outside span(gens), one factorization per
    column."""
    return next((col for col in range(m.domain.rank)
                 if submodule_membership(ring, gens, m.column(col)) is None), None)


def rl_check(hopf, U, V):
    """λ(ξ) = ρ(g) solved for each g in V (λ̄ for a left U), λ's dense rows
    factored afresh for each g by the solver above."""
    b = hopf.bialgebra
    ring = b.ring
    lam = duality.lambda_map(hopf, U)
    witnesses, failures = [], []
    for g in V:
        g = tuple(ring.of(x) for x in g)
        res = PreparedSolver(ring, lam.matrix).solve(rho_endo(hopf, g))
        if not res.solvable:
            failures.append(g)
            continue
        pairs = []
        rU = U.rank
        for pos, c in enumerate(res.particular):
            if not (c):
                continue
            i, l = divmod(pos, rU)
            pairs.append((vec_scale(ring, c, b.carrier.basis_vector(i)),
                          u_dense(U)[l]))
        witnesses.append(duality.RLWitness(g, tuple(pairs)))
    return duality.RLReport(witnesses, failures)


def compat_maps(cp, side):
    """φ, ψ (right) or φ̄, ψ̄ (op) with one dense σ, σ⁻¹, action and A-product
    per Sweedler term."""
    h = cp.action.hopf
    b = h.bialgebra
    A = cp.action.algebra
    ring = cp.ring
    rH, rA = b.rank, A.rank
    sigma, sigma_inv = cp.cocycle.sigma, cp.cocycle.sigma_inv
    Sb, S = h.twisted_antipode, h.antipode
    basis = b.carrier.basis_vector
    halg = b.algebra
    dom = tensor_module(b.carrier, A.carrier)
    cod = hom_module(b.carrier, A.carrier)
    phi_cols, psi_cols = [], []
    for i in range(rH):
        for j in range(rA):
            a_j = A.carrier.basis_vector(j)
            phi_out = [ring.zero] * cod.rank
            psi_out = [ring.zero] * cod.rank
            for t in range(rH):
                if side is DiagramSide.RIGHT:
                    # φ(h⊗a)(h̃) = Σ [S̄(h̃₂)a]σ(S̄(h̃₁)⊗h)
                    val = zero_vector(A.carrier)
                    for c, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
                        acted = act(cp.action, Sb.column(t2), a_j)
                        sig = sigma.apply(kron_vec(ring, Sb.column(t1), basis(i)))
                        val = vec_add(ring, val,
                                      vec_scale(ring, c, A.product(acted, sig)))
                    scatter_value(phi_out, ring, val, rH, t)
                    # ψ(h⊗a)(h̃) = Σ σ⁻¹(h̃₃⊗S̄(h̃₂))[h̃₄a]σ(h̃₅⊗S̄(h̃₁)h)
                    val = zero_vector(A.carrier)
                    for c, legs in b.coalgebra.sweedler_basis(t, 5):
                        t1, t2, t3, t4, t5 = legs
                        s1 = sigma_inv.apply(kron_vec(ring, basis(t3),
                                                      Sb.column(t2)))
                        acted = act_basis(cp.action, t4, a_j)
                        s2 = sigma.apply(kron_vec(
                            ring, basis(t5),
                            halg.product(Sb.column(t1), basis(i))))
                        val = vec_add(ring, val, vec_scale(
                            ring, c, A.product(A.product(s1, acted), s2)))
                    scatter_value(psi_out, ring, val, rH, t)
                else:
                    # φ̄(h⊗a)(h̃) = Σ [h̃₁a]σ(h̃₂⊗h)
                    val = zero_vector(A.carrier)
                    for c, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
                        acted = act_basis(cp.action, t1, a_j)
                        sig = sigma.apply(kron_vec(ring, basis(t2), basis(i)))
                        val = vec_add(ring, val,
                                      vec_scale(ring, c, A.product(acted, sig)))
                    scatter_value(phi_out, ring, val, rH, t)
                    # ψ̄(h⊗a)(h̃) = Σ σ⁻¹(S(h̃₃)⊗h̃₄)[S(h̃₂)a]σ(S(h̃₁)⊗h̃₅h)
                    val = zero_vector(A.carrier)
                    for c, legs in b.coalgebra.sweedler_basis(t, 5):
                        t1, t2, t3, t4, t5 = legs
                        s1 = sigma_inv.apply(kron_vec(ring, S.column(t3),
                                                      basis(t4)))
                        acted = act(cp.action, S.column(t2), a_j)
                        s2 = sigma.apply(kron_vec(
                            ring, S.column(t1),
                            halg.product(basis(t5), basis(i))))
                        val = vec_add(ring, val, vec_scale(
                            ring, c, A.product(A.product(s1, acted), s2)))
                    scatter_value(psi_out, ring, val, rH, t)
            phi_cols.append(tuple(phi_out))
            psi_cols.append(tuple(psi_out))
    phi = map_from_columns(dom, cod, phi_cols)
    psi = map_from_columns(dom, cod, psi_cols)
    return phi, psi


def compat_records(cp, U, V, side):
    """(φ-witness, ψ-witness, RL failures, RL witnesses) of the compatibility
    check, from the maps and solves above."""
    h = cp.action.hopf
    A = cp.action.algebra
    ring = cp.ring
    phi, psi = compat_maps(cp, side)
    rH = h.rank
    V = [tuple(ring.of(x) for x in v) for v in V]
    gens = [tuple(v[p % rH] if p // rH == k else ring.zero for p in range(A.rank * rH))
            for k in range(A.rank) for v in V]
    rl = rl_check(h, U, V)
    return (pair_label(h, A, first_outside(ring, gens, phi)),
            pair_label(h, A, first_outside(ring, gens, psi)),
            rl.failures, rl.witnesses)


def pair_label(h, A, col):
    """The name (h_i,a_j) of column i·rank(A) + j of H⊗A, read off the label
    tuples."""
    if col is None:
        return None
    i, j = divmod(col, A.rank)
    return f"({h.carrier.labels[i]},{A.carrier.labels[j]})"


def coaction_rows(h, side):
    """Σ f₍₋₁₎⊗f₍₀₎ per dual basis element, one dense product per term."""
    b = h.bialgebra
    ring = b.ring
    rH = b.rank
    S, Sb = h.antipode, h.twisted_antipode
    basis = b.carrier.basis_vector
    rows = []
    for i in range(rH):
        vec = [ring.zero] * (rH * rH)
        for t in range(rH):
            acc = zero_vector(b.carrier)
            for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
                if h2 != i:
                    continue
                term = (b.algebra.product(basis(h3), Sb.column(h1))
                        if side is duality.CoactionSide.UPSILON
                        else b.algebra.product(S.column(h1), basis(h3)))
                acc = vec_add(ring, acc, vec_scale(ring, c, term))
            scatter_value(vec, ring, acc, rH, t)
        rows.append(tuple(vec))
    return rows


def coaction_table(h, side):
    b = h.bialgebra
    rows = coaction_rows(h, side)
    Hd = dual_module(b.carrier)
    cmap = map_from_columns(Hd, tensor_module(b.carrier, Hd), rows)
    rep = coaction_checks(h, side, rows, cmap)
    return duality.CoactionTable(side, cmap, rep)


def coaction_preimage_of_U(table, hopf, U):
    """V = coaction⁻¹(H ⊗ span(U)): the f-part of the kernel of [cmap | -G],
    G the dense generators h_i⊗u and cmap read off its dense columns."""
    b = hopf.bialgebra
    ring = b.ring
    rH = b.rank
    gens = [kron_vec(ring, b.carrier.basis_vector(i), u)
            for i in range(rH) for u in u_dense(U)]
    cols = [table.map.column(i) for i in range(rH)]
    rows = [[cols[i][r] for i in range(rH)] + [ring.neg(g[r]) for g in gens]
            for r in range(rH * rH)]
    kernel = PreparedSolver(ring, rows).kernel()
    return list(canonical_span(ring, [v[:rH] for v in kernel], rH))


def coefficient_space_of_action(action):
    """Cf(A): the nonzero functionals h ↦ coeff_k(h⇀a_j), in (j, k) order,
    from one dense h_i⇀a_j per entry."""
    b, A, ring = action.bialgebra, action.algebra, action.ring
    out = []
    for j in range(A.rank):
        for k in range(A.rank):
            vec = tuple(act_basis(action, i, A.carrier.basis_vector(j))[k]
                        for i in range(b.rank))
            if any(not ring.is_zero(x) for x in vec):
                out.append(vec)
    return out


def coaction_checks(h, side, rows, cmap):
    """The coaction identities with dense ⋆-products, regular actions and
    H-products, recomputed for every term of every basis tuple."""
    b = h.bialgebra
    ring = b.ring
    rH = b.rank
    rep = ValidationReport(f"coaction table ({side.value})")
    dual_alg = ConvolutionAlgebra(b.coalgebra, ground_algebra(ring)).algebra()
    basis = b.carrier.basis_vector
    fbasis = dual_module(b.carrier).basis_vector
    S, Sb = h.antipode, h.twisted_antipode
    ups = side is duality.CoactionSide.UPSILON
    tag = "upsilon" if ups else "omega"

    def terms(i):
        out = []
        for pos, c in enumerate(rows[i]):
            if (c):
                p, q = divmod(pos, rH)
                out.append((c, p, q))
        return out

    # (1-a)
    ok = True
    wit = None
    for i in range(rH):
        f = fbasis(i)
        for gidx in range(rH):
            g = fbasis(gidx)
            lhs = dual_alg.product(f, g)
            rhs = (ring.zero,) * rH
            for c, p, q in terms(i):
                moved = (regular_act_right(h, g, basis(p)) if ups
                         else regular_act_left(h, basis(p), g))
                rhs = vec_add(ring, rhs, vec_scale(
                    ring, c, dual_alg.product(moved, fbasis(q))))
            if lhs != rhs:
                ok, wit = False, f"(f{i},g{gidx})"
                break
        if not ok:
            break
    rep.add(f"{tag}.1a", "f⋆g matches the coaction expansion for all basis pairs",
            ok, wit)

    # (1-b)
    ok = True
    wit = None
    for i in range(rH):
        f = fbasis(i)
        for t in range(rH):
            lhs = zero_vector(b.carrier)
            for c, (t1, t2) in b.coalgebra.sweedler_basis(t, 2):
                lhs = vec_add(ring, lhs,
                              vec_scale(ring, ring.mul(c, f[t1]), basis(t2)))
            rhs = zero_vector(b.carrier)
            for c, p, q in terms(i):
                moved = hit(b, fbasis(q), t)
                term = (b.algebra.product(basis(p), moved) if ups
                        else b.algebra.product(moved, basis(p)))
                rhs = vec_add(ring, rhs, vec_scale(ring, c, term))
            if lhs != rhs:
                ok, wit = False, f"(f{i},h{t})"
                break
        if not ok:
            break
    rep.add(f"{tag}.1b", "h↼f matches the coaction expansion on all basis elements",
            ok, wit)

    # (1-c)
    ok = True
    wit = None
    for i in range(rH):
        for t in range(rH):
            lhs = zero_vector(b.carrier)
            for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
                if h2 != i:
                    continue
                term = (b.algebra.product(basis(h3), Sb.column(h1)) if ups
                        else b.algebra.product(S.column(h1), basis(h3)))
                lhs = vec_add(ring, lhs, vec_scale(ring, c, term))
            rhs = zero_vector(b.carrier)
            for c, p, q in terms(i):
                rhs = vec_add(ring, rhs,
                              vec_scale(ring, ring.mul(c, fbasis(q)[t]),
                                        basis(p)))
            if lhs != rhs:
                ok, wit = False, f"(f{i},h{t})"
                break
        if not ok:
            break
    rep.add(f"{tag}.1c", "the characterizing identity holds", ok, wit)

    # (3)
    ok = True
    wit = None
    if ups:
        for i in range(rH):
            for j in range(rH):
                for gidx in range(rH):
                    g = fbasis(gidx)
                    lhs = dual_alg.product(
                        dual_alg.product(fbasis(i), fbasis(j)), g)
                    rhs = (ring.zero,) * rH
                    for ci, p1, q1 in terms(i):
                        for cj, p2, q2 in terms(j):
                            c = ring.mul(ci, cj)
                            prod = b.algebra.product(basis(p2), basis(p1))
                            moved = regular_act_right(h, g, prod)
                            inner = dual_alg.product(fbasis(q1), fbasis(q2))
                            rhs = vec_add(ring, rhs, vec_scale(
                                ring, c, dual_alg.product(moved, inner)))
                    if lhs != rhs:
                        ok, wit = False, f"(f{i},f{j},g{gidx})"
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add(f"{tag}.3", "(f⋆f̃)⋆g matches the double-coaction expansion",
                ok, wit)
    else:
        hhd = tensor_algebra(b.algebra, dual_alg)
        lhs = compose(cmap, dual_alg.mult)
        rhs = compose(hhd.mult, kron(cmap, cmap))
        ok = lhs == rhs
        eps_vec = tuple(b.coalgebra.counit.matrix[0])
        unit_ok = cmap.apply(eps_vec) == kron_vec(ring, b.algebra.unit, eps_vec)
        rep.add(f"{tag}.3", "the coaction is an algebra morphism (H^ω is a "
                "left H-comodule algebra)", ok and unit_ok,
                None if ok and unit_ok else "multiplicativity")

    # (4)
    ok = True
    wit = None
    for i in range(rH):
        f = fbasis(i)
        for t in range(rH):
            hvec = basis(t)
            moved = (regular_act_right(h, f, hvec) if ups
                     else regular_act_left(h, hvec, f))
            lhs = cmap.apply(moved)
            rhs = (ring.zero,) * (rH * rH)
            for c, (h1, h2, h3) in b.coalgebra.sweedler_basis(t, 3):
                for cc, p, q in terms(i):
                    s = ring.mul(c, cc)
                    if ups:
                        hpart = b.algebra.product(
                            b.algebra.product(Sb.column(h3), basis(p)), basis(h1))
                        fpart = regular_act_right(h, fbasis(q), basis(h2))
                    else:
                        hpart = b.algebra.product(
                            b.algebra.product(basis(h1), basis(p)), S.column(h3))
                        fpart = regular_act_left(h, basis(h2), fbasis(q))
                    rhs = vec_add(ring, rhs,
                                  vec_scale(ring, s, kron_vec(ring, hpart, fpart)))
            if lhs != rhs:
                ok, wit = False, f"(f{i},h{t})"
                break
        if not ok:
            break
    rep.add(f"{tag}.4", "the module-compatibility formula for the coaction holds",
            ok, wit)
    return rep


# --- the map builders as they wrote dense columns ------------------------------


def hom_scatter(out, ring, c, value, rank, t):
    """out += c·value at the t-th basis vector of C, for a dense Hom(C, B)
    coordinate list ``out`` with rank(C) = ``rank``; ``value`` is (row,
    coefficient) pairs of B, a sparse vector or an enumerated dense one."""
    for p, x in value:
        if x:
            out[p * rank + t] = ring.add(out[p * rank + t], ring.mul(c, x))


def lambda_map(hopf, U):
    """λ (λ̄ for a left U), each column summed in a dense Hom(H, H) list."""
    b = hopf.bialgebra
    ring, rH = b.ring, b.rank
    right = U.side is ModuleSide.RIGHT
    end_mod = hom_module(b.carrier, b.carrier)
    hprod = linalg.bilinear(ring, b.algebra.mult, rH)
    e = linalg.unit_vectors(ring, rH)
    hits = [[tuple((p, x) for p, x in enumerate(hit(b, f, t)) if x) for t in range(rH)]
            for f in u_dense(U)]
    cols = []
    for i in range(rH):
        for f_hits in hits:
            out = [ring.zero] * end_mod.rank
            for t in range(rH):
                val = hprod(e[i], f_hits[t]) if right else hprod(f_hits[t], e[i])
                hom_scatter(out, ring, ring.one, val, rH, t)
            cols.append(tuple(out))
    return DenseMap.from_columns(tensor_module(b.carrier, U.module), end_mod, cols)


def alpha_map(hopf, A, U):
    """α, each column written into a dense Hom(H, A⊗H) list."""
    b = hopf.bialgebra
    ring, rH = b.ring, b.rank
    ah = tensor_module(A.carrier, b.carrier)
    cod = hom_module(b.carrier, ah)
    cols = []
    for p in range(ah.rank):
        for f in u_dense(U):
            out = [ring.zero] * cod.rank
            for t in range(rH):
                if f[t]:
                    out[p * rH + t] = f[t]
            cols.append(tuple(out))
    return DenseMap.from_columns(tensor_module(ah, U.module), cod, cols)


def _tabulated(cp, U, dom, cod, k_legs, add_term):
    """``duality._tabulated`` contracting each f into a dense list; add_term
    sums into the library's {flat index: coefficient} accumulators."""
    b = cp.action.hopf.bialgebra
    ring, rH = cp.ring, b.rank
    live = {k for f in u_dense(U) for k, x in enumerate(f) if x}
    cols = []
    for i in range(cp.action.algebra.rank):
        for j in range(rH):
            acc = {}
            for t in range(rH):
                for ck, kl in b.coalgebra.sweedler_basis(t, k_legs):
                    if kl[-1] in live:
                        add_term(acc.setdefault((t, kl[-1]), {}), ck, i, j, kl)
            for f in u_dense(U):
                out = [ring.zero] * cod.rank
                for (t, k), vec in acc.items():
                    if f[k]:
                        hom_scatter(out, ring, f[k], vec.items(), rH, t)
                cols.append(tuple(out))
    return DenseMap.from_columns(dom, cod, cols)


def _hom_values(b, A, legs, value):
    """``duality._hom_values`` summing each column in a dense list."""
    ring, rH = b.ring, b.rank
    cod = hom_module(b.carrier, A.carrier)
    expansions = [b.coalgebra.sweedler_basis(t, legs) for t in range(rH)]
    cols = []
    for i in range(rH):
        for j in range(A.rank):
            out = [ring.zero] * cod.rank
            for t, terms in enumerate(expansions):
                for c, tl in terms:
                    hom_scatter(out, ring, c, value(i, j, tl), rH, t)
            cols.append(out)
    return DenseMap.from_columns(tensor_module(b.carrier, A.carrier), cod, cols)


def tabulated_maps(cp, U, side):
    """The library's γ and δ with the dense-list contraction above."""
    with mock.patch.object(duality, "_tabulated", _tabulated):
        return duality.gamma_map(cp, U, side), duality.delta_map(cp, U, side)


def hom_value_maps(cp, side):
    """The library's φ and ψ with the dense-list sum above."""
    with mock.patch.object(duality, "_hom_values", _hom_values):
        return duality.compat_maps(cp, side)


def unit_map(alg):
    """R → A, 1 ↦ 1_A, from its dense column."""
    return DenseMap.from_columns(unit_module(alg.ring), alg.carrier, [alg.unit])


def convolution_unit(source, target):
    """η∘ε of Hom(C, A), flattened row-major."""
    return tuple(x for row in unit_map(target).compose(source.counit).matrix for x in row)


def convolution_system(conv, f_vec):
    """The matrix of x ↦ f⋆x that ``convolution_invert`` solves, from its
    dense columns."""
    f_vec = tuple(conv.ring.of(x) for x in f_vec)
    cols = [conv.convolve(f_vec, conv.carrier.basis_vector(idx))
            for idx in range(conv.carrier.rank)]
    return DenseMap.from_columns(conv.carrier, conv.carrier, cols)


class ConvolutionAlgebra:
    """Hom_R(C, A) on row-major flattened vectors, as the library computed it
    before convolution took and returned maps: ``convolve`` multiplies f⋆g
    out on the sparse structure constants, ``algebra`` is the whole
    convolution table with unit η∘ε, and ``invert`` solves the dense system
    of :func:`convolution_system` for η∘ε and checks x⋆f = η∘ε."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self.ring = source.ring
        self.carrier = hom_module(source.carrier, target.carrier)
        self.unit_vec = convolution_unit(source, target)

    def convolve(self, f_vec, g_vec):
        """(f⋆g)(c_j) = Σ d·f(c_p)g(c_q) over the terms d·c_p⊗c_q of Δ(c_j)."""
        ring, rC, rA = self.ring, self.source.rank, self.target.rank
        mul, add = ring.mul, ring.add
        f_cols, g_cols = _hom_columns(f_vec, rC), _hom_columns(g_vec, rC)
        mcols = self.target.mult.sparse_columns()
        out = [ring.zero] * (rA * rC)
        for j, col in enumerate(self.source.comult.sparse_columns()):
            for flat, d in col:
                p, q = divmod(flat, rC)
                for i, x in f_cols[p]:
                    dx = mul(d, x)
                    for k, y in g_cols[q]:
                        dxy = mul(dx, y)
                        for t, c in mcols[i * rA + k]:
                            out[t * rC + j] = add(out[t * rC + j], mul(c, dxy))
        return tuple(out)

    def algebra(self):
        """The convolution product as an AlgebraData on the hom module: column
        (i,j)⊗(k,l) is Σ s·c at (t, m) over the terms c·a_t of a_ia_k and
        s·c_j⊗c_l of Δ(c_m)."""
        rC, rA, mul = self.source.rank, self.target.rank, self.ring.mul
        comult = self.source.comult
        drows = linalg.transpose(comult, comult.codomain, comult.domain).sparse_columns()
        cols = [[(t * rC + m, sc) for t, c in self.target.basis_product(i, k)
                 for m, s in drows[j * rC + l] if (sc := mul(s, c))]
                for i, j, k, l in product(range(rA), range(rC), range(rA), range(rC))]
        mult = LinearMap.from_sparse_columns(tensor_module(self.carrier, self.carrier),
                                             self.carrier, cols)
        return AlgebraData(self.carrier, mult, self.unit_vec)

    def invert(self, f_vec):
        """The two-sided convolution inverse of ``f_vec`` as a DenseMap."""
        f_vec = tuple(self.ring.of(x) for x in f_vec)
        system = convolution_system(self, f_vec)
        res = PreparedSolver(self.ring, system.matrix).solve(self.unit_vec)
        if not res.solvable:
            raise NotConvInvertible("f⋆x = η∘ε has no solution", reason="no_right_inverse")
        if self.convolve(res.particular, f_vec) != self.unit_vec:
            raise NotConvInvertible("right inverse exists but x⋆f ≠ η∘ε", reason="one_sided")
        return hom_map(res.particular, self.source.carrier, self.target.carrier)


def _hom_columns(vec, rank_source):
    """Per source basis vector c_j, the nonzero (i, coefficient) of f(c_j),
    read off the row-major flattening of f."""
    cols = [[] for _ in range(rank_source)]
    for idx, x in enumerate(vec):
        if x:
            i, j = divmod(idx, rank_source)
            cols[j].append((i, x))
    return cols


def dual_algebra(h):
    """H* under ⋆ as the whole convolution table Hom(H, R)."""
    return ConvolutionAlgebra(h.coalgebra, ground_algebra(h.ring)).algebra()


def tensor_counit(c, d):
    """ε_C⊗ε_D from the dense Kronecker product of the counit rows."""
    return DenseMap(tensor_module(c.carrier, d.carrier), unit_module(c.ring),
                    [kron_vec(c.ring, c.counit.matrix[0], d.counit.matrix[0])])


def coinvariant_inclusion(c):
    """B^{coH} ↪ B from the dense coinvariant vectors."""
    coin = coinvariants(c)
    cols = [expand_sparse(v, c.algebra.rank, c.ring) for v in coin.vectors]
    return DenseMap.from_columns(coin.module, c.algebra.carrier, cols)


def action_map(hopf, algebra, images):
    """``action_from_endomorphisms``: the dense image columns, each through
    ``FreeModule.vector``."""
    b = hopf.bialgebra
    cols = [algebra.carrier.vector(endo.column(j) if hasattr(endo, "column") else endo[j])
            for endo in images[:b.rank] for j in range(algebra.rank)]
    return DenseMap.from_columns(tensor_module(b.carrier, algebra.carrier),
                                 algebra.carrier, cols)


def endomorphism(carrier, cols):
    """A hand-written endomorphism of the catalog: dense columns, each through
    ``FreeModule.vector``."""
    return DenseMap.from_columns(carrier, carrier, [carrier.vector(c) for c in cols])


def sigma_single(action, i, j, value):
    """``catalog._sigma_single``: σ normal except σ(h_i⊗h_j) = value."""
    b, A, ring = action.bialgebra, action.algebra, action.ring
    eps = b.coalgebra.counit_scalar
    cols = []
    for p in range(b.rank):
        for q in range(b.rank):
            if (p, q) == (i, j):
                cols.append(A.carrier.vector(value if isinstance(value, (list, tuple))
                                             else [value] + [0] * (A.rank - 1)))
            else:
                c = ring.mul(eps(b.carrier.basis_vector(p)), eps(b.carrier.basis_vector(q)))
                cols.append(tuple(ring.mul(c, x) for x in A.unit))
    return DenseMap.from_columns(tensor_module(b.carrier, b.carrier), A.carrier, cols)


def subalgebra_inclusion(U):
    """span(U) ↪ H* from the dense functionals."""
    return DenseMap.from_columns(U.module, dual_module(U.hopf.carrier), u_dense(U))


def integral(cp):
    """θ(h) = 1_A#h from the dense Kronecker products."""
    b = cp.action.hopf.bialgebra
    A = cp.action.algebra
    return DenseMap.from_columns(b.carrier, cp.carrier,
                                 [kron_vec(cp.ring, A.unit, b.carrier.basis_vector(j))
                                  for j in range(b.rank)])


def extracted_product_and_iso(cl, crossed):
    """The multiplication of the coinvariant algebra A' and the iso
    A'#_σH → B, a#h ↦ ι(a)θ(h), of the extraction from ``cl`` whose crossed
    product is ``crossed``, from dense B-products."""
    B, hopf, coin, vecs, express = _cleft_express(cl)
    mult = DenseMap.from_columns(tensor_module(coin.module, coin.module), coin.module,
                                 [express(B.product(u, v)) for u in vecs for v in vecs])
    iso = DenseMap.from_columns(crossed.carrier, B.carrier,
                                [B.product(u, cl.theta.column(j))
                                 for u in vecs for j in range(hopf.rank)])
    return mult, iso


def opposite_iso(cp, cleft):
    """G: (A^op#_τH^op)^op → A#_σH, a⊗h ↦ θ⁻¹(S̄(h))·(a#1), from dense
    products (the domain is read as A⊗H: only its rank matters here)."""
    hopf = cp.action.hopf
    A, b, ring = cp.action.algebra, hopf.bialgebra, cp.ring
    Sbar = hopf.twisted_antipode
    cols = []
    for i in range(A.rank):
        iota = kron_vec(ring, A.carrier.basis_vector(i), b.algebra.unit)
        cols.extend(cp.product_algebra.product(cleft.theta_inv.apply(Sbar.column(j)), iota)
                    for j in range(b.rank))
    return DenseMap.from_columns(cp.carrier, cp.carrier, cols)


def split_coefficient_map(ring, generators, length):
    """``linalg.split_coefficient_map`` with P built from its dense rows."""
    gens = [tuple(ring.of(x) for x in v) for v in generators]
    tsolver = PreparedSolver(ring, [list(gen) for gen in gens])
    prows = []
    for j in range(len(gens)):
        res = tsolver.solve([ring.one if a == j else ring.zero for a in range(len(gens))])
        if not res.solvable:
            return None
        prows.append(res.particular)
    return DenseMap(module(ring, length, "x"), module(ring, len(gens), "u"), prows)


# --- hypothesis strategies ---------------------------------------------------


def elements(ring):
    if ring == QQ:
        values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    elif ring == ZZ:
        values = st.integers(min_value=-3, max_value=3)
    else:
        values = st.integers(min_value=0, max_value=5)
    return st.one_of(st.just(0), values).map(ring.of)


def module(ring, rank, prefix):
    return free_module(ring, [f"{prefix}{i}" for i in range(rank)])


def draw_map(data, ring, domain, codomain):
    """A map with random entries, about half of them zero, and a random set of
    columns forced to zero."""
    zero_cols = data.draw(st.sets(st.integers(0, max(domain.rank - 1, 0))))
    cols = []
    for j in range(domain.rank):
        if j in zero_cols:
            cols.append([ring.zero] * codomain.rank)
        else:
            cols.append([data.draw(elements(ring)) for _ in range(codomain.rank)])
    return map_from_columns(domain, codomain, cols)


def draw_vector(data, ring, length):
    return tuple(data.draw(elements(ring)) for _ in range(length))


def units(ring):
    return st.sampled_from((1, -1)) if ring == ZZ else elements(ring).filter(ring.is_unit)


def non_units(ring):
    return elements(ring).filter(lambda x: not ring.is_unit(x))


def draw_square(data, ring, n, kind):
    """An n×n map.  ``unimodular``: a diagonal of units, random row additions
    and a row permutation; ``singular``: the same with one row scaled by a
    non-unit (n ≥ 1); ``random``: :func:`draw_map`."""
    carrier = module(ring, n, "e")
    if kind == "random":
        return draw_map(data, ring, carrier, carrier)
    rows = [[data.draw(units(ring)) if i == j else ring.zero for j in range(n)]
            for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j:
            c = data.draw(elements(ring))
            rows[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    rows = [rows[i] for i in data.draw(st.permutations(range(n)))]
    if kind == "singular":
        i, c = data.draw(st.integers(0, n - 1)), data.draw(non_units(ring))
        rows[i] = [ring.mul(c, a) for a in rows[i]]
    return LinearMap(carrier, carrier, rows)
