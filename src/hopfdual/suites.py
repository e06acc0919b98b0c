"""Suite execution: each suite is a fixed sequence of exact checks over one
catalog entry or parsed instance, producing deterministic report sections.
``run_suite`` hands every runner one :class:`Derived`, which builds each
object that several checks read once per call and is dropped on return.
The duality checks and maps take the objects of each side (U, H#U, B#U and
λ with its factorization) from it as arguments instead of building them.
A table, morphism, inverse or coinvariant span that recurs by value (φ₁ is
λ for U = H*) is certified once per call, in ``linalg.CERTIFICATES``."""
from __future__ import annotations

import time
from typing import Optional

from .actions import (
    coinvariants,
    coinvariants_form_subalgebra,
    regular_comodule,
    trivial_action,
    validate_weak_action,
)
from .catalog import CatalogEntry, ground_algebra
from .crossed import (
    CleftData,
    CleftExtraction,
    CrossedProductData,
    OppositeCrossed,
    cleft_maps,
    coefficient_mismatch,
    crossed_from_integral,
    direct_product_checks,
    integral_from_crossed,
    opposite_crossed,
    smash_product_data,
    trivial_sigma,
)
from .duality import (
    DiagramSide,
    build_diagram,
    duality_iso,
    epsilon_maps,
    final_chain,
    first_outside,
    j_generators,
    lambda_map,
    matrix_iso,
    phi_maps,
    rl_check,
    theorem_suite,
)
from .errors import DimensionMismatch, HopfdualError, ValidationError
from .hopf import (
    AlgebraData,
    AlgebraIso,
    HopfData,
    algebra_morphism_witness,
    certify_algebra_iso,
    compute_antipode,
    convolution_invert,
    dual_hopf,
    endomorphism_algebra,
    tensor_coalgebra,
    validate_hopf,
)
from .linalg import (
    CERTIFICATES,
    LinearMap,
    PreparedSolver,
    dual_module,
    invert_map,
    kron,
    sparse_vector,
    unit_vectors,
)
from .reporting import Report, ValidationReport
from .smash import (
    ModuleSide,
    SubalgebraU,
    hat_smash,
    left_smash,
    op_hat_smash,
    op_smash,
    relabelled_smash,
    right_smash,
    smash_compare,
)

SUITE_ORDER = ("hopf", "crossed", "smash", "duality", "cleft", "opposite")


def suites_for_kind(kind: str):
    """The suites that apply to an entry of ``kind``: the crossed, cleft and
    opposite suites need crossed or cleft data."""
    if kind == "hopf":
        return ("hopf", "smash", "duality")
    return SUITE_ORDER


def applicable_suites(entry: CatalogEntry):
    suites = suites_for_kind(entry.kind)
    only = entry.expected.get("only_suites")
    if only:
        suites = tuple(s for s in suites if s in only)
    return suites


def _timed(rep: ValidationReport, check_id: str, statement: str, fn):
    """Run one check body; library errors become failed records."""
    start = time.perf_counter()
    try:
        result = fn()
        passed = True if result is None else bool(result)
        witness = None
    except HopfdualError as exc:
        passed = False
        witness = str(exc)
    rep.add(check_id, statement, passed, witness,
            (time.perf_counter() - start) * 1000.0)


def _module_side(side: DiagramSide) -> ModuleSide:
    """The side of U's regular H-action on a diagram side: left for op."""
    return ModuleSide.RIGHT if side is DiagramSide.RIGHT else ModuleSide.LEFT


class Derived:
    """What one ``run_suite`` call derives from its entry.  Each object is
    built on first use and shared by the later checks of the call; a build
    that raises keeps its HopfdualError, and every later ask re-raises it.
    Every check reads the same U: the entry's span, read once by
    :meth:`span` into canonical sparse functionals as V is, or H* without one.
    H* is held per side, for ``smash.compare`` too, whose right smash is H#U
    over it.  Each side of the duality theorems shares U, H#U, B#U, λ with
    its one factorization and the duality isomorphism (op: H#^opU, B#^opU,
    λ̄); B#U is H#U's table where B's product, unit and coaction are H's.
    #(H,H) and #^op(H,H) are built per check: a one-suite run reads each
    once, so keeping them would only raise the peak memory."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            try:
                self._built[key] = build()
            except HopfdualError as exc:
                self._built[key] = exc
        if isinstance(self._built[key], HopfdualError):
            raise self._built[key]
        return self._built[key]

    @property
    def hopf(self) -> HopfData:
        return self._once("hopf", self.entry.hopf_data)

    def span(self, name: str):
        """The entry's ``U`` or ``V`` span as canonical sparse functionals, or
        None: where a span enters, read through ``FreeModule.vector``."""
        span = self.entry.u_span if name == "U" else self.entry.v_span

        def read():
            dual = dual_module(self.hopf.carrier)
            try:
                return [sparse_vector(dual.vector(v)) for v in span]
            except DimensionMismatch:
                raise ValidationError(f"{name} element has wrong length") from None
        return None if span is None else self._once(name, read)

    def full_dual(self, side: DiagramSide) -> SubalgebraU:
        """H* for ``side`` (op: a left H-module): :meth:`u` without a span,
        and the U of ``smash.compare`` on every entry."""
        return self._once(("H*", side),
                          lambda: SubalgebraU.full_dual(self.hopf, _module_side(side)))

    def u(self, side: DiagramSide) -> SubalgebraU:
        """U for ``side`` (op: a left H-module): the entry's span, or H*."""
        if self.entry.u_span is None:
            return self.full_dual(side)
        return self._once(("U", side), lambda: SubalgebraU(self.hopf, self.span("U"),
                                                           _module_side(side)))

    @staticmethod
    def _smash(B, U: SubalgebraU) -> AlgebraData:
        return (right_smash if U.side is ModuleSide.RIGHT else op_smash)(B, U)

    def h_smash(self, side: DiagramSide, U: Optional[SubalgebraU] = None) -> AlgebraData:
        """H#U (op: H#^opU) of the regular comodule, for U = :meth:`u` unless
        another U of ``side`` is given."""
        U = self.u(side) if U is None else U
        return self._once(("H#U", U), lambda: self._smash(regular_comodule(self.hopf), U))

    def b_smash(self, side: DiagramSide) -> AlgebraData:
        """B#U (op: B#^opU) of B = :attr:`diagram_crossed`'s comodule.  When
        B's product, unit and coaction are H's own (B = R#H on a bare Hopf
        entry), H#U's table is B#U's, named on B#U's carrier and validated
        there, which the run's store answers; a failing H#U leaves B#U to
        be built, so that its witness is named on its own carrier."""
        def build():
            B, h, U = self.diagram_crossed.comodule, self.hopf, self.u(side)
            if (B.algebra.unit == h.algebra.unit and B.algebra.mult == h.algebra.mult
                    and B.coaction == h.coalgebra.comult):
                try:
                    return relabelled_smash(B, U, self.h_smash(side))
                except HopfdualError:
                    pass
            return self._smash(B, U)
        return self._once(("B#U", side), build)

    def lam(self, side: DiagramSide) -> LinearMap:
        """λ: H#U → End(H) (op: λ̄: H#^opU → End(H))."""
        return self._once(("λ", side), lambda: lambda_map(self.hopf, self.u(side)))

    def lam_coords(self, side: DiagramSide):
        """The ``solve`` of one :class:`PreparedSolver` of :meth:`lam`'s
        columns: v ↦ v's coordinates in them, or None."""
        lam = self.lam(side)
        return self._once(("λ coords", side), lambda: PreparedSolver(
            self.hopf.ring, lam.sparse_columns(), lam.codomain.rank).solve)

    @property
    def crossed(self) -> Optional[CrossedProductData]:
        """None for a bare Hopf algebra; cleft data are extracted once."""
        payload = self.entry.payload
        if isinstance(payload, CleftData):
            return self.extraction.crossed
        return payload if isinstance(payload, CrossedProductData) else None

    @property
    def cleft(self) -> CleftData:
        """The entry's cleft data, or θ(h) = 1#h on its crossed product,
        which the cleft suite's records validate."""
        payload = self.entry.payload
        if isinstance(payload, CleftData):
            return payload
        return self._once("cleft", lambda: integral_from_crossed(payload))

    @property
    def extraction(self) -> CleftExtraction:
        return self._once("extraction", lambda: crossed_from_integral(self.cleft))

    @property
    def integral(self) -> CleftData:
        """θ(h) = 1#h on :attr:`crossed`: on a crossed-product payload that
        is :attr:`cleft` itself."""
        if isinstance(self.entry.payload, CrossedProductData):
            return self.cleft
        return self._once("integral", lambda: integral_from_crossed(self.crossed))

    @property
    def round_trip(self) -> CleftExtraction:
        """The extraction from :attr:`integral`: on a crossed-product payload
        that is :attr:`extraction` itself, on cleft data a second extraction
        from the extracted product."""
        if isinstance(self.entry.payload, CrossedProductData):
            return self.extraction
        return crossed_from_integral(self.integral)

    @property
    def diagram_crossed(self) -> CrossedProductData:
        """The entry's crossed product, or R#H with the trivial action."""
        h = self.hopf
        return self.crossed or self._once("trivial", lambda: smash_product_data(
            trivial_action(h, ground_algebra(h.ring))))

    @property
    def opposite(self) -> OppositeCrossed:
        return self._once("opposite", lambda: opposite_crossed(self.crossed,
                                                               self.integral))

    def duality_iso(self, side: DiagramSide) -> AlgebraIso:
        """The certified duality isomorphism on ``side`` for ``self.u``."""
        return self._once(("iso", side), lambda: duality_iso(build_diagram(
            self.diagram_crossed, self.u(side), side, self.b_smash(side),
            self.h_smash(side), self.lam(side)), self.lam_coords(side)))


def run_hopf_suite(ctx: Derived) -> ValidationReport:
    entry = ctx.entry
    rep = ValidationReport(f"{entry.name}: hopf suite")
    h = ctx.hopf
    rep.extend(validate_hopf(h, f"{entry.name}"))

    def antipode_recomputed():
        return compute_antipode(h.bialgebra) == h.antipode

    _timed(rep, "hopf.antipode_recomputed",
           "the stored antipode equals the convolution inverse of the identity",
           antipode_recomputed)

    def twisted_is_inverse():
        return h.twisted_antipode == invert_map(h.antipode)

    _timed(rep, "hopf.twisted_vs_inverse",
           "the twisted antipode equals the matrix inverse of the antipode",
           twisted_is_inverse)
    if h.algebra.is_commutative() or h.coalgebra.is_cocommutative():
        _timed(rep, "hopf.twisted_equals_antipode",
               "S̄ = S for (co)commutative data",
               lambda: h.twisted_antipode == h.antipode)

    def dual_ok():
        d = dual_hopf(h)
        dd = dual_hopf(d)
        return dd == h

    _timed(rep, "hopf.dual", "the dual validates and the double dual is the "
           "original (evaluation identification)", dual_ok)
    return rep


def run_crossed_suite(ctx: Derived) -> ValidationReport:
    rep = ValidationReport(f"{ctx.entry.name}: crossed suite")
    cp = ctx.crossed
    rep.extend(validate_weak_action(cp.action, "weak action"))
    flags = cp.cocycle.flags
    rep.add("crossed.flags", "σ is normal, a cocycle, and twisted-module "
            "compatible", flags.all_true)

    def biconditional():
        unit_ok, assoc_ok = direct_product_checks(cp.action, cp.cocycle.sigma)
        return (unit_ok == flags.normal
                and assoc_ok == (flags.cocycle and flags.twisted_module))

    _timed(rep, "crossed.biconditional", "direct unit/associativity checks "
           "agree with the cocycle flags in both directions", biconditional)

    def inverse_recomputed():
        b = cp.action.bialgebra
        return convolution_invert(tensor_coalgebra(b.coalgebra, b.coalgebra),
                                  cp.action.algebra, cp.cocycle.sigma) == cp.cocycle.sigma_inv

    _timed(rep, "crossed.sigma_inverse", "σ⁻¹ is the two-sided convolution "
           "inverse of σ", inverse_recomputed)
    rep.extend(cp.comodule.validate("comodule algebra"))

    def coinvariants_ok():
        coin = coinvariants(cp.comodule)
        return (coinvariants_form_subalgebra(cp.comodule, coin)
                and coefficient_mismatch(cp, coin) is None)

    _timed(rep, "crossed.coinvariants", "the coinvariants equal A⊗1 and form "
           "a subalgebra", coinvariants_ok)
    return rep


def run_smash_suite(ctx: Derived) -> ValidationReport:
    rep = ValidationReport(f"{ctx.entry.name}: smash suite")
    h = ctx.hopf
    cp = ctx.crossed
    if cp is not None:
        for side in DiagramSide:  # an invalid U is an input error, not a failure
            ctx.u(side)
    _timed(rep, "smash.compare", "left and right smash structure constants on "
           "H⊗H* are identical", lambda: smash_compare(h, lambda: ctx.h_smash(
               DiagramSide.RIGHT, ctx.full_dual(DiagramSide.RIGHT))))
    _timed(rep, "smash.hat", "#(H,H) constructs and validates",
           lambda: hat_smash(h, regular_comodule(h)) is not None)
    _timed(rep, "smash.op_hat", "#op(H,H) constructs and validates",
           lambda: op_hat_smash(h, regular_comodule(h)) is not None)
    if cp is not None:
        _timed(rep, "smash.right", "(A#σH)#U constructs and validates",
               lambda: ctx.b_smash(DiagramSide.RIGHT) is not None)
        _timed(rep, "smash.op", "(A#σH)#opU constructs and validates",
               lambda: ctx.b_smash(DiagramSide.OP) is not None)
        if cp.cocycle.sigma == trivial_sigma(cp.action):
            def left_matches():
                ls = left_smash(cp.action)
                return (ls.mult == cp.product_algebra.mult
                        and ls.unit == cp.product_algebra.unit)

            _timed(rep, "smash.left", "A#H equals the trivial-cocycle crossed "
                   "product bit-identically", left_matches)
    return rep


def run_duality_suite(ctx: Derived) -> ValidationReport:
    entry = ctx.entry
    rep = ValidationReport(f"{entry.name}: duality suite")
    h = ctx.hopf
    for side in DiagramSide:  # an invalid U or V is an input error, not a failure
        ctx.u(side)
    V = ctx.span("V")
    full_u = entry.u_span is None

    def lambda_iso():
        end = endomorphism_algebra(h.carrier)
        for side, target, name in ((DiagramSide.RIGHT, end, "λ"),
                                   (DiagramSide.OP, end.opposite(), "λ̄")):
            source, lam = ctx.h_smash(side), ctx.lam(side)
            if full_u:
                certify_algebra_iso(source, target, lam, name)
            elif algebra_morphism_witness(source, target, lam) is not None:
                return False
        return True

    _timed(rep, "duality.lambda",
           "λ and λ̄ are unital algebra morphisms (isomorphisms for U = H*)",
           lambda_iso)
    _timed(rep, "duality.phi", "φ₁/φ₂ and the barred pair are mutually "
           "inverse and multiplicative",
           lambda: phi_maps(h, DiagramSide.RIGHT) and phi_maps(h, DiagramSide.OP)
           and True)
    cp = ctx.diagram_crossed
    A = cp.action.algebra
    _timed(rep, "duality.epsilon", "ε/ε⁻¹ and the barred pair round-trip and "
           "factor χ = ε∘α",
           lambda: all(epsilon_maps(h, A, ctx.u(side), ctx.lam(side), side)
                       for side in DiagramSide))
    if full_u:
        basis = unit_vectors(h.ring, h.rank)
        _timed(rep, "duality.rl", "U = H* satisfies the RL-condition on both "
               "sides", lambda: all(rl_check(h, ctx.u(side), ctx.lam_coords(side),
                                             basis).ok for side in DiagramSide))

    def suite_run():
        inner = theorem_suite(cp, ctx.u, ctx.lam_coords, ctx.duality_iso, V=V)
        rep.extend(inner)
        return inner.ok

    _timed(rep, "duality.theorems", "coaction conditions, compatibility and "
           "both duality isomorphisms hold", suite_run)
    if full_u:
        _timed(rep, "duality.matrix", "the end-to-end matrix-algebra "
               "isomorphism is certified",
               lambda: matrix_iso(cp, ctx.lam(DiagramSide.RIGHT),
                                  ctx.duality_iso(DiagramSide.RIGHT)) is not None)
    return rep


def run_cleft_suite(ctx: Derived) -> ValidationReport:
    rep = ValidationReport(f"{ctx.entry.name}: cleft suite")
    cp = ctx.crossed
    cleft = ctx.cleft
    U = ctx.u(DiagramSide.RIGHT)
    rep.extend(cleft.validate("cleft data"))

    def theta_inv_matches():
        return convolution_invert(cp.action.hopf.coalgebra, cleft.comodule_algebra.algebra,
                                  cleft.theta) == cleft.theta_inv

    _timed(rep, "cleft.theta_inverse", "θ⁻¹ equals the convolution inverse "
           "of θ", theta_inv_matches)

    def round_trip():
        ext = ctx.round_trip
        return (ext.crossed.action.action == cp.action.action
                and ext.crossed.cocycle.sigma == cp.cocycle.sigma
                and ext.colinear)

    _timed(rep, "cleft.round_trip", "integral → crossed product recovers the "
           "action and cocycle exactly", round_trip)

    def maps_contained():
        h = cp.action.hopf
        phi, psi = cleft_maps(cleft)
        # J(A⊗V) inside Hom(H, A) with A the coinvariant coordinates
        gens = j_generators(phi.codomain.rank // h.rank, unit_vectors(h.ring, h.rank), h.rank)
        inside = PreparedSolver(h.ring, gens, phi.codomain.rank).solve
        return (first_outside(inside, phi) is None
                and first_outside(inside, psi) is None)

    _timed(rep, "cleft.maps", "the integral compatibility maps land in "
           "J(A⊗V) for V = H*", maps_contained)

    def route_equality():
        direct = ctx.duality_iso(DiagramSide.RIGHT)
        transport = kron(ctx.extraction.iso.inverse, LinearMap.identity(U.module))
        # on a crossed-product payload B is the diagram's, the transport the identity
        crossed_payload = isinstance(ctx.entry.payload, CrossedProductData)
        b_smash = (ctx.b_smash(DiagramSide.RIGHT) if crossed_payload
                   else right_smash(cleft.comodule_algebra, U))
        routed = direct.map @ transport
        certify_algebra_iso(b_smash, direct.target, routed, "cleft-route duality")
        return routed == direct.map if crossed_payload else True

    _timed(rep, "cleft.route", "the cleft-route duality isomorphism is "
           "certified and matches the direct route", route_equality)
    return rep


def run_opposite_suite(ctx: Derived) -> ValidationReport:
    rep = ValidationReport(f"{ctx.entry.name}: opposite suite")
    cp = ctx.crossed
    U = ctx.u(DiagramSide.RIGHT)
    _timed(rep, "opposite.tau", "τ = σ⁻¹∘(S̄⊗S̄) validates as an invertible "
           "normal cocycle with the twisted-module property",
           lambda: ctx.opposite.tau.flags.all_true)
    _timed(rep, "opposite.iso", "A#σH ≅ (A^op#τH^op)^op certified as a "
           "comodule-algebra isomorphism", lambda: ctx.opposite.colinear)

    def chain_ok():
        res = final_chain(cp, U, ctx.opposite, ctx.duality_iso(DiagramSide.RIGHT),
                          ctx.h_smash(DiagramSide.RIGHT))
        rep.extend(res.report)
        return res.report.ok

    _timed(rep, "opposite.chain", "the four-step chain through the opposite "
           "product composes to a certified duality isomorphism", chain_ok)
    return rep


_RUNNERS = {
    "hopf": run_hopf_suite,
    "crossed": run_crossed_suite,
    "smash": run_smash_suite,
    "duality": run_duality_suite,
    "cleft": run_cleft_suite,
    "opposite": run_opposite_suite,
}


def run_suite(entry: CatalogEntry, suite: str = "all") -> Report:
    """Execute one suite (or every applicable one) over an entry."""
    report = Report()
    allowed = applicable_suites(entry)
    if suite == "all":
        if not allowed:
            raise ValidationError(f"no suite applies to entry {entry.name!r}")
        chosen = allowed
    else:
        if suite not in _RUNNERS:
            raise ValidationError(f"unknown suite {suite!r}")
        if suite not in allowed:
            raise ValidationError(
                f"suite {suite!r} is not applicable to entry {entry.name!r}")
        chosen = (suite,)
    ctx = Derived(entry)
    token = CERTIFICATES.set({})
    try:
        for s in chosen:
            report.add_section(_RUNNERS[s](ctx))
    finally:
        CERTIFICATES.reset(token)
    return report
