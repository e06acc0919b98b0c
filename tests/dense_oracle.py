"""Dense reference definitions for the sparse kernels and structure builders.

Each definition builds its result entry by entry on the dense matrices, with
nothing from hopfdual but the ring operations and the ``LinearMap`` container:
a triple-loop product, an entrywise Kronecker product, a permutation-matrix
twist, and the Kronecker-and-twist composites that define tensor, opposite
and convolution structure constants.  ``test_linalg.py`` and ``test_hopf.py``
require the library to agree with them bit for bit.
"""
from hypothesis import strategies as st

from hopfdual.linalg import LinearMap, free_module, tensor_module
from hopfdual.rings import QQ, ZZ, Zmod

RINGS = (ZZ, QQ, Zmod(6))


def dense(domain, codomain, rows):
    """A LinearMap over exactly ``rows``, with no re-canonicalisation."""
    return LinearMap._raw(domain, codomain, [tuple(r) for r in rows])


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
    return LinearMap.from_columns(domain, codomain, cols)


def draw_vector(data, ring, length):
    return tuple(data.draw(elements(ring)) for _ in range(length))

