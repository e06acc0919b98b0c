"""Exact linear algebra over Z, Q and Z/n.

Conventions, fixed once for the whole library:

* column ``j`` of a :class:`LinearMap` is the image of the ``j``-th domain
  basis vector, and its ``matrix`` is the tuple of rows;
* tensor indices flatten row-major: ``e_i (x) f_j`` sits at ``i * rank(N) + j``;
* ``Hom(C, A)`` flattens the matrix of a map row-major, i.e. the basis map
  ``c_j -> a_i`` sits at index ``i * rank(C) + j``.

A :class:`LinearMap` stores one form, its canonical sparse columns: per
column the (row, coefficient) pairs with nonzero coefficient, rows
increasing, so that equality and hashing compare columns.  Its dense rows
are built the first time ``matrix`` is read, which in the library only the
instance writer does.  Every computed map is written as its sparse columns;
the normalising constructor, which runs each entry through the ring, is for
parsed and catalog input.  The kernels (``apply``,
``compose``, :func:`kron`, :func:`twist_map`) work on the sparse columns, so
their cost follows the nonzero entries, and the builders sum each column,
Hom(C, B) values included (:func:`hom_scatter`), in a dict
(:func:`sparse_column`).  Tensor, opposite and convolution structure
constants are likewise written by index arithmetic on sparse columns, never
by composing Kronecker products with twist matrices.

An element is handed from one function to another in the same form, as a
canonical sparse vector: a map's column.  Builders read their factors off
the sparse tables with :func:`bilinear` ((u, v) ↦ m(u⊗v)) and
:func:`linear` (v ↦ m(v)).  Dense tuples remain only at the boundary:
stored units (``AlgebraData.unit``) and the unit checks that read them,
parsed and hand-written input (``FreeModule.vector``, the catalog's
columns), and elimination.  Elimination is entered through
:class:`PreparedSolver`, which factors the matrix whose columns are
canonical sparse vectors, solves sparse right-hand sides for sparse
solutions and returns its kernel as sparse vectors; inside, it works on
dense rows, which one helper writes from the sparse columns (the
determinant and ``LinearMap.matrix`` use it too).  Coordinates in a span
are a :class:`PreparedSolver` of its generators, and a split span (U, the
coinvariants) answers through :func:`split_coordinates`, sparse in and out.

Basis names play no part in this: a :class:`FreeModule` holds a label
function, derived modules compose their factors', and a name is built only
when read (a witness, the instance writer).  :func:`free_module`, the one
constructor from a name list, is where names are checked to be distinct.

Solving is exact, with the factorization chosen by the ground ring:
Gauss–Jordan elimination over the fields Q and Z/p (p prime), Smith normal
form with unimodular transforms over Z, and the same Smith machinery on the
``[A | n*I]`` lift for composite Z/n.  :func:`invert_map` reads M⁻¹ off that
one factorization.
"""
from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, NotInvertible, RingMismatch
from .rings import Elem, ModularRing, RationalRing, Ring

Vector = tuple

CERTIFICATES: ContextVar[Optional[dict]] = ContextVar("certificates", default=None)


def certified(kind: str, key, compute):
    """``compute()``, computed once per equal ``(kind, key)`` while
    ``suites.run_suite`` holds a store in :data:`CERTIFICATES`, else on every
    call.  ``key`` is the whole input but its basis names: a shared result
    may carry another caller's modules, and no caller reads names off it."""
    store, key = CERTIFICATES.get(), (kind, key)
    if store is None:
        return compute()
    if key not in store:
        store[key] = compute()
    return store[key]


@dataclass(frozen=True)
class FreeModule:
    """A free module of finite rank whose i-th basis vector is named
    ``label(i)``; equality and hashing compare ring and rank only."""

    ring: Ring
    rank: int
    label: Callable[[int], str] = field(compare=False, repr=False)

    def __post_init__(self):
        if self.rank < 0:
            raise DimensionMismatch("rank must be non-negative")

    @property
    def labels(self) -> tuple:
        """Every basis name, in basis order."""
        return tuple(map(self.label, range(self.rank)))

    def basis_vector(self, i: int) -> Vector:
        cache = self.__dict__.get("_basis_cache")
        if cache is None:
            one, zero = self.ring.one, self.ring.zero
            cache = tuple(
                tuple(one if j == i else zero for j in range(self.rank))
                for i in range(self.rank)
            )
            object.__setattr__(self, "_basis_cache", cache)
        if not 0 <= i < self.rank:
            raise DimensionMismatch(f"basis index {i} out of range")
        return cache[i]

    def vector(self, entries) -> Vector:
        entries = tuple(self.ring.of(e) for e in entries)
        if len(entries) != self.rank:
            raise DimensionMismatch("vector length must equal rank")
        return entries


def free_module(ring: Ring, labels: Sequence[str]) -> FreeModule:
    """The free module on the basis names ``labels``, which must be pairwise
    distinct; the only constructor from a name list."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DimensionMismatch("basis labels must be pairwise distinct")
    return FreeModule(ring, len(labels), labels.__getitem__)


def unit_module(ring: Ring) -> FreeModule:
    """Rank-one module representing the ground ring itself."""
    return FreeModule(ring, 1, lambda i: "1")


def tensor_module(m: FreeModule, n: FreeModule) -> FreeModule:
    if m.ring != n.ring:
        raise RingMismatch("tensor factors live over different rings")
    r = n.rank
    return FreeModule(m.ring, m.rank * r, lambda i: f"{m.label(i // r)}⊗{n.label(i % r)}")


def dual_module(m: FreeModule) -> FreeModule:
    return FreeModule(m.ring, m.rank, lambda i: f"{m.label(i)}*")


def hom_module(dom: FreeModule, cod: FreeModule) -> FreeModule:
    """Hom(dom, cod) as a free module; see the flattening convention above."""
    if dom.ring != cod.ring:
        raise RingMismatch("hom of modules over different rings")
    r = dom.rank
    return FreeModule(dom.ring, cod.rank * r,
                      lambda i: f"[{cod.label(i // r)}←{dom.label(i % r)}]")


def hom_scatter(out: dict, ring: Ring, c: Elem, value, rank: int, t: int):
    """out += c·value at the t-th basis vector of C, for a Hom(C, B)
    accumulator ``out`` = {flat index: coefficient} with rank(C) = ``rank``;
    ``value`` is a canonical sparse vector of B.  :func:`sparse_column` reads
    the sum off as a column."""
    mul, add = ring.mul, ring.add
    for p, x in value:
        pos, v = p * rank + t, mul(c, x)
        out[pos] = add(out[pos], v) if pos in out else v


# ---------------------------------------------------------------------------
# vectors


def kron_vec(ring: Ring, u: Vector, v: Vector) -> Vector:
    """Flattened outer product: (u ⊗ v)[i*len(v)+j] = u_i * v_j."""
    out = []
    zero = ring.zero
    mul = ring.mul
    for a in u:
        if not a:
            out.extend([zero] * len(v))
        else:
            out.extend(mul(a, b) if b else zero for b in v)
    return tuple(out)


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """A matrix of ring elements between two free modules, stored as its
    canonical sparse columns; the dense rows are built on first read."""

    __slots__ = ("domain", "codomain", "_cols", "_rows")

    def __init__(self, domain: FreeModule, codomain: FreeModule, matrix):
        if domain.ring != codomain.ring:
            raise RingMismatch("domain and codomain rings differ")
        ring = domain.ring
        rows = tuple(tuple(ring.of(x) for x in row) for row in matrix)
        if len(rows) != codomain.rank:
            raise DimensionMismatch(
                f"matrix has {len(rows)} rows, codomain rank is {codomain.rank}"
            )
        for row in rows:
            if len(row) != domain.rank:
                raise DimensionMismatch(
                    f"matrix row length {len(row)}, domain rank {domain.rank}"
                )
        cols = tuple(map(sparse_vector, zip(*rows))) if rows else ((),) * domain.rank
        self._store(domain, codomain, cols, rows)

    def _store(self, domain, codomain, cols, rows):
        for name, value in zip(self.__slots__, (domain, codomain, cols, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("LinearMap is immutable")

    @staticmethod
    def from_sparse_columns(domain: FreeModule, codomain: FreeModule,
                            cols) -> "LinearMap":
        """Build a map from canonical sparse columns: per domain basis vector,
        the (row, coefficient) pairs with nonzero canonical coefficient, rows
        increasing.  They are stored as they are, as :meth:`sparse_columns`;
        only their count is checked against the domain rank."""
        cols = tuple(map(tuple, cols))
        if len(cols) != domain.rank:
            raise DimensionMismatch(f"{len(cols)} columns, domain rank is {domain.rank}")
        m = object.__new__(LinearMap)
        m._store(domain, codomain, cols, None)
        return m

    @property
    def ring(self) -> Ring:
        return self.domain.ring

    @property
    def matrix(self) -> tuple:
        """The dense rows, built from the sparse columns on first read."""
        if self._rows is None:
            rows = _dense_rows(self.ring, self._cols, self.codomain.rank)
            object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        return self._rows

    @staticmethod
    def identity(module: FreeModule) -> "LinearMap":
        one = module.ring.one
        return LinearMap.from_sparse_columns(module, module,
                                             [((i, one),) for i in range(module.rank)])

    def column(self, j: int) -> Vector:
        out = [self.ring.zero] * self.codomain.rank
        for i, c in self._cols[j]:
            out[i] = c
        return tuple(out)

    def sparse_columns(self):
        """Per column, the (row, coefficient) pairs with nonzero coefficient,
        rows increasing."""
        return self._cols

    def apply(self, vec: Vector) -> Vector:
        if len(vec) != self.domain.rank:
            raise DimensionMismatch("vector length must equal domain rank")
        ring = self.ring
        out = [ring.zero] * self.codomain.rank
        cols = self._cols
        mul, add = ring.mul, ring.add
        for j, x in enumerate(vec):
            if not x:
                continue
            for i, c in cols[j]:
                out[i] = add(out[i], mul(c, x))
        return tuple(out)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self ∘ other (apply ``other`` first)."""
        if self.ring != other.ring:
            raise RingMismatch("composition over different rings")
        if other.codomain.rank != self.domain.rank:
            raise DimensionMismatch("composition rank mismatch")
        ring, inner = self.ring, self._cols
        cols = [combine_columns(ring, [(inner[k], x) for k, x in col]) for col in other._cols]
        return LinearMap.from_sparse_columns(other.domain, self.codomain, cols)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return self.compose(other)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._require_same_shape(other)
        ring = self.ring
        minus_one = ring.neg(ring.one)
        cols = [combine_columns(ring, [(x, ring.one), (y, minus_one)])
                for x, y in zip(self._cols, other._cols)]
        return LinearMap.from_sparse_columns(self.domain, self.codomain, cols)

    def _require_same_shape(self, other: "LinearMap"):
        if self.ring != other.ring:
            raise RingMismatch("maps over different rings")
        if (
            self.domain.rank != other.domain.rank
            or self.codomain.rank != other.codomain.rank
        ):
            raise DimensionMismatch("map shapes differ")

    def __eq__(self, other) -> bool:
        # Labels are cosmetic; equality is ring + shape + sparse columns.
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.domain.rank == other.domain.rank
            and self.codomain.rank == other.codomain.rank
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.domain.rank, self.codomain.rank, self._cols))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"LinearMap({self.codomain.rank}x{self.domain.rank} over {self.ring!r})"


def kron(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product f ⊗ g acting on the flattened tensor basis."""
    if f.ring != g.ring:
        raise RingMismatch("kron over different rings")
    mul, rank = f.ring.mul, g.codomain.rank
    gcols = g.sparse_columns()
    cols = [kron_column(fcol, gcol, rank, mul)
            for fcol in f.sparse_columns() for gcol in gcols]
    return LinearMap.from_sparse_columns(tensor_module(f.domain, g.domain),
                                  tensor_module(f.codomain, g.codomain), cols)


def kron_column(fcol, gcol, rank: int, mul) -> tuple:
    """The canonical sparse column of f⊗g from canonical sparse columns of f
    and g, where ``rank`` is the codomain rank of g: u_i1·v_i2 sits at row
    i1·rank + i2."""
    return tuple([(i1 * rank + i2, ab) for i1, a in fcol for i2, b in gcol
                  if (ab := mul(a, b))])


def legs(col, rank: int) -> list:
    """The terms of a sparse column of a map into M⊗N, rank(N) = ``rank``,
    as (p, q, c): c·m_p⊗n_q."""
    return [(*divmod(flat, rank), c) for flat, c in col]


def combine_columns(ring, terms):
    """Σ c·col over (col, c) in ``terms``, each col a canonical sparse column
    (rows increasing, zeros dropped): the canonical sparse column of the sum,
    a tuple.  A lone term with c = 1 is returned as it is."""
    terms = list(terms)
    if len(terms) == 1 and terms[0][1] == ring.one:
        return terms[0][0]
    mul, add = ring.mul, ring.add
    acc = {}
    for col, c in terms:
        for t, x in col:
            v = mul(c, x)
            prev = acc.get(t)
            acc[t] = v if prev is None else add(prev, v)
    return sparse_column(acc)


def sparse_column(acc: dict) -> tuple:
    """The canonical sparse column of a {row: coefficient} accumulator: the
    nonzero pairs, rows increasing."""
    return tuple(sorted([(t, x) for t, x in acc.items() if x]))


def sparse_vector(v) -> tuple:
    """The canonical sparse column of a dense vector of canonical entries:
    the nonzero (index, entry) pairs, indices increasing."""
    return tuple([(t, x) for t, x in enumerate(v) if x])


def bilinear(ring, m: LinearMap, right_rank: int):
    """(u, v) ↦ m(u⊗v) on canonical sparse vectors, for a map m out of a
    tensor product whose right factor has rank ``right_rank``: the terms are
    read off m's sparse columns."""
    cols, mul = m.sparse_columns(), ring.mul
    return lambda u, v: combine_columns(
        ring, [(cols[x * right_rank + y], mul(a, c)) for x, a in u for y, c in v])


def linear(ring, m: LinearMap):
    """v ↦ m(v) on canonical sparse vectors, the terms read off m's sparse
    columns."""
    cols = m.sparse_columns()
    return lambda v: combine_columns(ring, [(cols[x], c) for x, c in v])


def unit_vectors(ring, rank: int) -> list:
    """The basis vectors of R^rank as canonical sparse vectors."""
    return [((x, ring.one),) for x in range(rank)]


def twist_map(m: FreeModule, n: FreeModule) -> LinearMap:
    """The canonical twist M⊗N → N⊗M, e_i⊗f_j ↦ f_j⊗e_i."""
    if m.ring != n.ring:
        raise RingMismatch("twist over different rings")
    one = m.ring.one
    cols = [((j * m.rank + i, one),) for i in range(m.rank) for j in range(n.rank)]
    return LinearMap.from_sparse_columns(tensor_module(m, n), tensor_module(n, m), cols)


def transpose(m: LinearMap, domain: FreeModule, codomain: FreeModule) -> LinearMap:
    """The transpose of ``m`` as a map ``domain`` → ``codomain``, whose ranks
    are m's codomain and domain ranks: row i of m becomes column i."""
    cols = [[] for _ in range(m.codomain.rank)]
    for j, col in enumerate(m.sparse_columns()):
        for i, c in col:
            cols[i].append((j, c))
    return LinearMap.from_sparse_columns(domain, codomain, cols)


def column_witness(xs, ys, label) -> Optional[str]:
    """Where two sequences of canonical sparse columns first differ: the name
    ``label(j)`` of that column, or None when they agree.  The sequences are
    walked in step up to the first difference, so lazily computed columns
    stop there, and only that one name is built."""
    for j, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return label(j)
    return None


def product_label(*modules):
    """``i ↦ (x,y,…)``: the name of the i-th vector of the flattened basis of
    the tensor product of ``modules``."""
    def label(i):
        parts = []
        for m in reversed(modules):
            i, k = divmod(i, m.rank)
            parts.append(m.label(k))
        return f"({','.join(reversed(parts))})"
    return label


# ---------------------------------------------------------------------------
# Smith normal form over Z


def smith_normal_form(rows):
    """Return (U, D, V) with U·A·V = D, D diagonal, d_i | d_{i+1}, U and V unimodular.

    Exact big-integer arithmetic throughout; no entry-size bound.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    k = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        if q == 0:
            return
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):  # col_i -= q * col_j
        if q == 0:
            return
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(k):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(k):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def diagonalize(start: int) -> int:
        t = start
        while t < min(m, k):
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, k):
                    a = abs(A[i][j])
                    if a and (best is None or a < best):
                        pivot, best = (i, j), a
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // A[t][t]
                        row_sub(i, t, q)
                        if A[i][t]:
                            swap_rows(i, t)
                            dirty = True
                for j in range(t + 1, k):
                    if A[t][j]:
                        q = A[t][j] // A[t][t]
                        col_sub(j, t, q)
                        if A[t][j]:
                            swap_cols(j, t)
                            dirty = True
                if not dirty:
                    break
            if A[t][t] < 0:
                negate_row(t)
            t += 1
        return t

    rank = diagonalize(0)
    # enforce the divisibility chain d_i | d_{i+1}
    i = 0
    while i + 1 < rank:
        if A[i + 1][i + 1] % A[i][i] != 0:
            col_sub(i, i + 1, -1)  # col_i += col_{i+1}
            diagonalize(i)
            i = max(i - 1, 0)
        else:
            i += 1
    return U, A, V


def hermite_rows(rows):
    """Row Hermite normal form over Z: the canonical basis of the row lattice.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  Unique per row lattice.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    if m == 0:
        return []
    k = len(A[0])
    r = 0
    for col in range(k):
        if r == m:
            break
        while True:
            nonzeros = [i for i in range(r, m) if A[i][col]]
            if not nonzeros:
                break
            i0 = min(nonzeros, key=lambda i: abs(A[i][col]))
            A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, m):
                if A[i][col]:
                    q = A[i][col] // A[r][col]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][col]:
                        done = False
            if done:
                break
        if A[r][col]:
            if A[r][col] < 0:
                A[r] = [-a for a in A[r]]
            for i in range(r):
                q = A[i][col] // A[r][col]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
    return [row for row in A[:r]]


def canonical_span(ring: Ring, vectors, length: int):
    """A canonical generating tuple for the span of ``vectors``.

    Two inputs with equal span produce identical output: Hermite form over Z,
    reduced row echelon form over Q, and the mod-n reduction of the Hermite
    form of the lifted lattice (span + n·Z^length) over Z/n.
    """
    vectors = [tuple(ring.of(x) for x in v) for v in vectors]
    for v in vectors:
        if len(v) != length:
            raise DimensionMismatch("span vectors of unequal length")
    if isinstance(ring, RationalRing):
        return tuple(tuple(r) for r in _rref_rows(ring, vectors))
    if isinstance(ring, ModularRing):
        n = ring.n
        rows = [list(v) for v in vectors]
        rows += [[n if i == j else 0 for j in range(length)] for i in range(length)]
        reduced = []
        for row in hermite_rows(rows):
            out = tuple(x % n for x in row)
            if any(out):
                reduced.append(out)
        return tuple(reduced)
    return tuple(tuple(r) for r in hermite_rows(vectors))


def _rref_rows(ring, vectors):
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
        inv = ring.inv(rows[r][col])
        rows[r] = [ring.mul(a, inv) for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)]


# ---------------------------------------------------------------------------
# solving


def _dense_rows(ring: Ring, cols, m: int) -> list:
    """The m dense rows, as lists, of the matrix whose columns are the
    canonical sparse vectors ``cols``: the one place where sparse columns
    are written out densely, for elimination and the dense readers.  A row
    index ≥ m is a DimensionMismatch."""
    zero = ring.zero
    rows = [[zero] * len(cols) for _ in range(m)]
    for j, col in enumerate(cols):
        if col and col[-1][0] >= m:
            raise DimensionMismatch(f"column {j} has a row index ≥ {m}")
        for i, x in col:
            rows[i][j] = x
    return rows


class PreparedSolver:
    """One factorization of the m-row matrix whose columns are the canonical
    sparse vectors ``cols``, reusable for many right-hand sides; solutions
    and kernel vectors are canonical sparse vectors too."""

    def __init__(self, ring: Ring, cols, m: int):
        cols = tuple(cols)
        self.ring, self.m, self.k = ring, m, len(cols)
        self._kernel = None
        rows = _dense_rows(ring, cols, m)
        if ring.is_field:
            self._prepare_field(rows)
            return
        if isinstance(ring, ModularRing):  # Smith form of [A | n*I] over Z
            rows = [r + [ring.n if i == j else 0 for j in range(m)]
                    for i, r in enumerate(rows)]
        self._U, self._D, self._V = smith_normal_form(rows)

    # -- integer / composite-modulus path (Smith normal form) --

    def _solve_snf(self, rhs):
        """x with A·x = rhs, given as its nonzero (index, int) pairs, or None."""
        U, D = self._U, self._D
        m = len(U)
        cols = len(D[0]) if m else 0
        c = [sum(row[j] * x for j, x in rhs) for row in U]
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
        nonzero = [(j, x) for j, x in enumerate(y) if x]
        return [sum(row[j] * x for j, x in nonzero) for row in self._V]

    def _snf_kernel_columns(self):
        D, V = self._D, self._V
        if not D:  # no rows: every column is free, and D and V have no columns
            return [[int(i == j) for i in range(self.k)] for j in range(self.k)]
        m, cols = len(D), len(D[0])
        r = min(m, cols)
        out = []
        for j in range(cols):
            if j >= r or D[j][j] == 0:
                out.append([V[i][j] for i in range(cols)])
        return out

    # -- field path (Gauss–Jordan elimination over Q and Z/p) --

    def _prepare_field(self, R):
        ring = self.ring
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
            # inv·0 is 0 and a - c·0 is a: skip the zeros of the pivot row
            inv = ring.inv(R[r][col])
            R[r] = [ring.mul(inv, a) if a else a for a in R[r]]
            T[r] = [ring.mul(inv, a) if a else a for a in T[r]]
            for i in range(self.m):
                if i != r and R[i][col] != 0:
                    c = R[i][col]
                    R[i] = [ring.sub(a, ring.mul(c, b)) if b else a for a, b in zip(R[i], R[r])]
                    T[i] = [ring.sub(a, ring.mul(c, b)) if b else a for a, b in zip(T[i], T[r])]
            pivots.append(col)
            r += 1
            if r == self.m:
                break
        self._R, self._pivots = R, pivots
        self._T_cols = [sparse_vector(col) for col in zip(*T)]

    # -- public API --

    def kernel(self) -> tuple:
        """The canonical generating tuple of the null space
        (:func:`canonical_span`), as canonical sparse vectors."""
        if self._kernel is not None:
            return self._kernel
        ring = self.ring
        if ring.is_field:
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
        self._kernel = tuple(map(sparse_vector, canonical_span(ring, basis, self.k)))
        return self._kernel

    def solve(self, v) -> Optional[tuple]:
        """A particular x with A·x = v, or None when there is none; v and x
        are canonical sparse vectors, and an index of v ≥ m is a
        DimensionMismatch."""
        if v and v[-1][0] >= self.m:
            raise DimensionMismatch("right-hand side length mismatch")
        ring = self.ring
        if ring.is_field:  # T·v, summed over T's columns at the nonzeros of v
            c = combine_columns(ring, [(self._T_cols[j], x) for j, x in v])
            if c and c[-1][0] >= len(self._pivots):
                return None
            return tuple([(self._pivots[r], x) for r, x in c])
        sol = self._solve_snf(v)
        if sol is None:
            return None
        if isinstance(ring, ModularRing):
            return sparse_vector([x % ring.n for x in sol[: self.k]])
        return sparse_vector(sol)


# ---------------------------------------------------------------------------
# determinants and inversion


def _det_int(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    A = [list(map(int, r)) for r in rows]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(n - 1):
        if A[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if A[i][t]), None)
            if swap is None:
                return 0
            A[t], A[swap] = A[swap], A[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                A[i][j] = (A[i][j] * A[t][t] - A[i][t] * A[t][j]) // prev
            A[i][t] = 0
        prev = A[t][t]
    return sign * A[n - 1][n - 1]


def determinant(m: LinearMap) -> Elem:
    """Exact determinant: elimination over a field, integer Bareiss otherwise."""
    if m.domain.rank != m.codomain.rank:
        raise DimensionMismatch("determinant of a non-square map")
    ring = m.ring
    A = _dense_rows(ring, m.sparse_columns(), m.codomain.rank)
    if ring.is_field:
        n = len(A)
        det = ring.one
        for t in range(n):
            pivot = next((i for i in range(t, n) if A[i][t] != 0), None)
            if pivot is None:
                return ring.zero
            if pivot != t:
                A[t], A[pivot] = A[pivot], A[t]
                det = ring.neg(det)
            det = ring.mul(det, A[t][t])
            inv = ring.inv(A[t][t])
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    c = ring.mul(inv, A[i][t])
                    A[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(A[i], A[t])]
        return det
    return ring.of(_det_int(A))


def invert_map(m: LinearMap) -> LinearMap:
    """Exact two-sided inverse; exists iff det(m) is a unit in the ring.

    The candidate is T over a field, V·U over Z (U·M·V = I) and one solve per
    column over composite Z/n; the exact check inv∘m = id = m∘inv decides,
    and the determinant is computed only to report a failure."""
    if m.domain.rank != m.codomain.rank:
        raise NotInvertible("cannot invert a non-square map")
    cols = certified("inverse", (m.ring, m.domain.rank, m.sparse_columns()),
                     lambda: _inverse_columns(m))
    return LinearMap.from_sparse_columns(m.codomain, m.domain, cols)


def _inverse_columns(m: LinearMap):
    ring = m.ring
    solver = PreparedSolver(ring, m.sparse_columns(), m.codomain.rank)
    ident = LinearMap.identity(m.domain)
    if ring.is_field:  # T's columns
        cols = solver._T_cols
    elif isinstance(ring, ModularRing):
        cols = [solver.solve(e) for e in unit_vectors(ring, m.domain.rank)]
        if None in cols:
            cols = None
    else:  # column j of V·U
        U, V = solver._U, solver._V
        cols = [sparse_vector([sum(a * b for a, b in zip(v, col)) for v in V])
                for col in zip(*U)]
    if cols is not None:
        inv = LinearMap.from_sparse_columns(m.codomain, m.domain, cols)
        if inv @ m == ident and m @ inv == ident:
            return inv.sparse_columns()
    det = determinant(m)
    if not ring.is_unit(det):
        raise NotInvertible(
            f"determinant {ring.show(det)} is not a unit in {ring!r}", determinant=det
        )
    raise NotInvertible("inverse verification failed", determinant=det)  # pragma: no cover


def split_coordinates(ring: Ring, generators, length: int):
    """The coordinates on span(generators) ⊆ R^length, or None when the span
    is not a direct summand with independent generators.

    Solves a left inverse P of the generator matrix G (P·G = I, whose
    existence is that certificate) and returns v ↦ P·v when G·(P·v) = v,
    else None.  The generators, each v and the coordinates are canonical
    sparse vectors; Gᵀ, whose columns are G's rows, is factored once."""
    gens = [tuple(g) for g in generators]
    pcols = [[] for _ in range(length)]  # column i of P, rows increasing
    if gens:
        grows = map(sparse_vector, _dense_rows(ring, gens, length))
        solver = PreparedSolver(ring, grows, len(gens))  # row p_j of P solves Gᵀ·p_j = e_j
        for j, e in enumerate(unit_vectors(ring, len(gens))):
            p = solver.solve(e)
            if p is None:
                return None
            for i, x in p:
                pcols[i].append((j, x))
    pcols = [tuple(col) for col in pcols]

    def coordinates(v):
        coords = combine_columns(ring, [(pcols[i], x) for i, x in v])
        rebuilt = combine_columns(ring, [(gens[j], c) for j, c in coords])
        return coords if rebuilt == tuple(v) else None
    return coordinates
