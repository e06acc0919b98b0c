"""Test-only builders: fixtures and negative controls that no CLI path needs.

``FunctionalSpan`` is a bare spanning list of functionals on H, for the raw
map builders and for an invalid U; ``idempotent_monoid_bialgebra`` is a
bialgebra with no antipode; ``entries_equal`` compares two entries through
their canonical instance documents; ``unvalidated_hopf`` builds Hopf data
from ``hopf_from_parts`` arguments without certifying it.
"""
from hopfdual.catalog import (
    CatalogEntry,
    algebra_from_quadruples,
    coalgebra_from_quadruples,
)
from hopfdual.hopf import BialgebraData, HopfData, HopfLike, bialgebra_of
from hopfdual.instancefile import export_entry
from hopfdual.linalg import FreeModule, LinearMap, free_module
from hopfdual.rings import Ring
from hopfdual.smash import ModuleSide


class FunctionalSpan:
    """A bare spanning list of functionals on H, with none of the closure
    guarantees of :class:`SubalgebraU`.  Enough for the raw map builders
    (α, χ, λ, ρ) and for negative controls that need an invalid U."""

    def __init__(self, hopf: HopfLike, elements, side: ModuleSide = ModuleSide.RIGHT):
        b = bialgebra_of(hopf)
        ring = b.ring
        self.hopf = hopf
        self.side = side
        self.elements = tuple(tuple(ring.of(x) for x in v) for v in elements)
        self.module = FreeModule(ring, len(self.elements),
                                 tuple(f"v{i}" for i in range(len(self.elements))))

    @property
    def rank(self):
        return len(self.elements)

    def element(self, i: int):
        return self.elements[i]


def idempotent_monoid_bialgebra(ring: Ring) -> BialgebraData:
    """R[{1, t}] with t² = t, Δ(t)=t⊗t: a bialgebra that is not Hopf."""
    carrier = free_module(ring, ["1", "t"])
    alg = algebra_from_quadruples(
        carrier,
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
        carrier.basis_vector(0),
    )
    coalg = coalgebra_from_quadruples(carrier, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1])
    b = BialgebraData(alg, coalg)
    b.validate().require()
    return b


def entries_equal(a: CatalogEntry, b: CatalogEntry) -> bool:
    """Equality through canonical serialization."""
    return export_entry(a) == export_entry(b)


def unvalidated_hopf(carrier, mult_quads, unit, comult_quads, counit_values,
                     antipode_cols, twisted_cols) -> HopfData:
    """Hopf data from quadruples and antipode columns, as
    ``catalog.hopf_from_parts`` builds it, but not validated: for tests that
    certify or recompute the parts themselves."""
    def endo(cols):
        return LinearMap.from_columns(carrier, carrier, [carrier.vector(c) for c in cols])
    bial = BialgebraData(algebra_from_quadruples(carrier, mult_quads, unit),
                         coalgebra_from_quadruples(carrier, comult_quads, counit_values))
    return HopfData(bial, endo(antipode_cols), endo(twisted_cols))
