"""The run-scoped certificate store: ``run_suite`` shares the results of
algebra and Hopf validation, morphism witnesses, inverses and coinvariants
among equal inputs of one call, and nowhere else, and answers a table's
associativity from its opposite's when that one passed.  Every shared
result must be the one a fresh computation on the caller's own input would
give."""
import collections
import contextlib
from contextvars import ContextVar
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from builders import cyclic_document
from hopfdual import actions, hopf, linalg, smash, suites
from hopfdual.actions import ComoduleAlgebraData, coinvariants, regular_comodule
from hopfdual.catalog import CatalogEntry, get, group_algebra, sweedler_hopf
from hopfdual.errors import NotInvertible
from hopfdual.hopf import AlgebraData, algebra_morphism_witness, matrix_algebra
from hopfdual.instancefile import parse_instance_dict
from hopfdual.linalg import (
    CERTIFICATES,
    LinearMap,
    free_module,
    invert_map,
    sparse_vector,
    tensor_module,
)
from hopfdual.rings import QQ, ZZ, Zmod
from hopfdual.suites import run_suite
from test_duality import rebase_hopf
from test_suites import triv_c2_small_u

Z3 = Zmod(3)


@pytest.fixture
def computed(monkeypatch):
    """Per kind, the certificates computed rather than read from a store."""
    counts = collections.Counter()
    original = linalg.certified

    def counting(kind, key, compute):
        def counted():
            counts[kind] += 1
            return compute()
        return original(kind, key, counted)

    for module in (linalg, hopf, actions):
        monkeypatch.setattr(module, "certified", counting)
    return counts


@contextlib.contextmanager
def certificate_store():
    """A store for the calls inside the block, as ``run_suite`` sets one."""
    token = CERTIFICATES.set({})
    try:
        yield
    finally:
        CERTIFICATES.reset(token)


def algebra(ring, cols, unit, labels=None):
    """The algebra on sparse table columns ``cols`` with the given unit."""
    r = len(unit)
    carrier = free_module(ring, labels or [f"e{i}" for i in range(r)])
    return AlgebraData(carrier, LinearMap.from_sparse_columns(
        tensor_module(carrier, carrier), carrier,
        [[(t, ring.of(c)) for t, c in col] for col in cols]), unit)


# Z[C2]: e0 is the unit and e1·e1 = e0; BROKEN has e0·e1 = 2e1, so it is
# neither associative at (e0, e0, e1) nor unital at e1
C2 = [[(0, 1)], [(1, 1)], [(1, 1)], [(0, 1)]]
BROKEN = [[(0, 1)], [(1, 2)], [(1, 1)], [(0, 1)]]


def verdicts(rep):
    return [(r.check_id, r.passed, r.witness) for r in rep.records]


# --- scope ------------------------------------------------------------------


def test_no_store_is_installed_outside_run_suite(computed):
    assert CERTIFICATES.get() is None
    m = LinearMap(free_module(ZZ, ["a", "b"]), free_module(ZZ, ["a", "b"]),
                  [[2, 1], [1, 1]])
    assert invert_map(m) == invert_map(m)
    assert computed["inverse"] == 2
    entry = get("Z_C2")
    entry.hopf_data()  # the payload is built, and validated, before either run
    computed.clear()
    run_suite(entry, "hopf")
    once = dict(computed)
    assert CERTIFICATES.get() is None
    # a second run starts from an empty store
    computed.clear()
    run_suite(entry, "hopf")
    assert dict(computed) == once


def test_the_store_is_reset_when_a_suite_raises(monkeypatch):
    seen = []

    def failing(ctx):
        invert_map(ctx.hopf.antipode)
        seen.append(dict(CERTIFICATES.get()))
        raise RuntimeError("suite failed")

    monkeypatch.setitem(suites._RUNNERS, "hopf", failing)
    with pytest.raises(RuntimeError):
        run_suite(get("Z_C2"), "hopf")
    assert "inverse" in {kind for kind, _ in seen[0]}
    assert CERTIFICATES.get() is None


# --- exactness --------------------------------------------------------------


def test_a_changed_constant_gets_its_own_verdict_and_witness(computed):
    inputs = [(C2, (1, 0)), (BROKEN, (1, 0)), (C2, (0, 1))]
    fresh = [verdicts(algebra(ZZ, cols, unit).validate()) for cols, unit in inputs]
    assert fresh == [
        [("algebra.assoc", True, None), ("algebra.unit", True, None)],
        [("algebra.assoc", False, "(e0,e0,e1)"), ("algebra.unit", False, "e1")],
        [("algebra.assoc", True, None), ("algebra.unit", False, "e0")]]
    computed.clear()
    with certificate_store():
        stored = [verdicts(algebra(ZZ, cols, unit).validate())
                  for cols, unit in inputs + inputs]
    assert stored == fresh + fresh
    assert computed["algebra"] == 3


def test_equal_integer_tables_over_different_rings_are_not_shared(computed):
    # e·e = 2e with unit 2: 2·2 = 1 holds over Z/3 only
    with certificate_store():
        unit_laws = [algebra(ring, [[(0, 2)]], (2,)).validate().records[1].passed
                     for ring in (Z3, ZZ, QQ)]
        assert unit_laws == [True, False, False]
        assert computed["algebra"] == 3
        # 2 is invertible over Z/3 and Q, not over Z
        two = [LinearMap(free_module(ring, ["x"]), free_module(ring, ["x"]),
                         [[2]]) for ring in (Z3, QQ, ZZ)]
        assert invert_map(two[0]).matrix == ((2,),)
        assert invert_map(two[1]).matrix == ((Fraction(1, 2),),)
        with pytest.raises(NotInvertible):
            invert_map(two[2])
        # a map e ↦ 2e from (e·e = 2e, 1 = 2e) to (e·e = e, 1 = e) is unital
        # over Z/3 only
        witnesses = []
        for ring in (Z3, ZZ, QQ):
            source = algebra(ring, [[(0, 2)]], (2,))
            target = algebra(ring, [[(0, 1)]], (1,))
            witnesses.append(algebra_morphism_witness(
                source, target, LinearMap(source.carrier, target.carrier, [[2]])))
        assert witnesses == [None, "1", "1"]


def test_a_morphism_is_recomputed_when_any_input_differs(computed):
    source = algebra(ZZ, C2, (1, 0))
    ident = LinearMap.identity(source.carrier)
    swap = LinearMap(source.carrier, source.carrier, [[0, 1], [1, 0]])
    with certificate_store():
        assert algebra_morphism_witness(source, source, ident) is None
        # only the target unit differs
        assert algebra_morphism_witness(
            source, algebra(ZZ, C2, (0, 1)), ident) == "1"
        # only the source unit differs
        assert algebra_morphism_witness(
            algebra(ZZ, C2, (0, 1)), source, ident) == "1"
        # only the map differs
        assert algebra_morphism_witness(source, source, swap) == "1"
        # only the source table differs
        assert algebra_morphism_witness(
            algebra(ZZ, BROKEN, (1, 0)), source, ident) == "(e0,e1)"
        assert algebra_morphism_witness(source, source, ident) is None
    assert computed["morphism"] == 5


# --- opposites ---------------------------------------------------------------

# Z[C3] with e0·e2 = 2e2: the first failing triple of the table is
# (e0,e0,e2), that of its opposite (e1,e1,e0), not the reversal (e2,e0,e0)
C3_PLANTED = [[(2, 2)] if (i, j) == (0, 2) else [((i + j) % 3, 1)]
              for i in range(3) for j in range(3)]


@pytest.fixture
def scans(monkeypatch):
    """The associativity scans that run, as a one-item list."""
    count, scan = [0], AlgebraData._axiom_failures

    def counted(self):
        count[0] += 1
        return scan(self)

    monkeypatch.setattr(AlgebraData, "_axiom_failures", counted)
    return count


def test_a_passing_table_answers_for_its_opposite(computed, scans):
    # M2(Z) on e_ij at 2i + j is associative and not commutative; with e00
    # for its unit the unit law fails at e01 on both sides, and the answer
    # carries that verdict too
    m2 = matrix_algebra(ZZ, 2).mult.sparse_columns()
    for unit, unit_witness in (((1, 0, 0, 1), None), ((1, 0, 0, 0), "e1")):
        alg = algebra(ZZ, m2, unit)
        assert alg.opposite().mult != alg.mult
        fresh = [verdicts(x.validate()) for x in (alg, alg.opposite())]
        computed.clear()
        scans[0] = 0
        with certificate_store():
            stored = [verdicts(x.validate()) for x in (alg, alg.opposite())]
        assert stored == fresh
        assert stored[1][1] == ("algebra.unit", unit_witness is None, unit_witness)
        assert computed["algebra"] == 2 and scans[0] == 1


def test_a_failing_table_and_its_opposite_report_their_own_witnesses(computed, scans):
    broken = algebra(ZZ, C3_PLANTED, (1, 0, 0))
    tables = [("(e0,e0,e2)", broken), ("(e1,e1,e0)", broken.opposite())]
    for order in (tables, tables[::-1]):
        want = [[("algebra.assoc", False, w), ("algebra.unit", False, "e2")] for w, _ in order]
        assert [verdicts(alg.validate()) for _, alg in order] == want
        computed.clear()
        scans[0] = 0
        with certificate_store():
            assert [verdicts(alg.validate()) for _, alg in order] == want
        assert computed["algebra"] == 2 and scans[0] == 2


def draw_table(data, ring):
    """A multiplication table over ``ring`` with its unit: a rank-1 table, a
    cyclic group algebra, M2 or a random rank-2 table, maybe its opposite,
    maybe with one constant changed (a planted failing triple, mostly)."""
    kind = data.draw(st.sampled_from(("rank1", "C2", "C3", "M2", "random2")))
    if kind == "rank1":
        cols, unit = [[(0, data.draw(dense.elements(ring)))]], (data.draw(dense.elements(ring)),)
    elif kind in ("C2", "C3"):
        n = int(kind[1])
        cols = [[((i + j) % n, ring.one)] for i in range(n) for j in range(n)]
        unit = (ring.one,) + (ring.zero,) * (n - 1)
    elif kind == "M2":
        m2 = matrix_algebra(ring, 2)
        cols, unit = [list(col) for col in m2.mult.sparse_columns()], m2.unit
    else:
        cols = [list(sparse_vector(dense.draw_vector(data, ring, 2))) for _ in range(4)]
        unit = dense.draw_vector(data, ring, 2)
    r = len(unit)
    if data.draw(st.booleans()):
        at, row = data.draw(st.integers(0, r * r - 1)), data.draw(st.integers(0, r - 1))
        value = data.draw(dense.elements(ring))
        cols[at] = [(t, c) for t, c in cols[at] if t != row] + ([(row, value)] if value else [])
        cols[at].sort()
    alg = algebra(ring, cols, unit)
    return alg.opposite() if data.draw(st.booleans()) else alg


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_scan_and_the_opposite_answer_equal_the_parent_scan(data):
    ring = data.draw(st.sampled_from((ZZ, QQ, Zmod(4), Zmod(6))))
    alg = draw_table(data, ring)
    assert alg._axiom_failures() == dense.axiom_failures(alg)
    # the opposite answers from the store exactly what its own scan finds
    op = alg.opposite()
    with certificate_store():
        stored = [verdicts(x.validate()) for x in (alg, op)]
    assert stored == [verdicts(x.validate()) for x in (alg, op)]
    assert op._axiom_failures() == dense.axiom_failures(op)


def test_work_per_run_is_pinned(monkeypatch, computed, scans):
    # per run_suite call: the associativity scans that run, the tables the
    # store answers from their opposites, the Hopf validations that run (a
    # repeat of equal tables in the same run reads the store), and the U
    # builds: H* once per side, smash.compare's included, and the opposite
    # chain's U on H^op
    c6 = parse_instance_dict(cyclic_document(6, 11)).to_entry()
    smash_q = get("sweedler4_smash_Q")
    calls = collections.Counter()
    validate, subalgebra = hopf.HopfData.validate, smash.SubalgebraU.__init__

    def counted(self, *args):
        calls["hopf"] += 1
        return validate(self, *args)

    def counted_u(self, *args):
        calls["U"] += 1
        subalgebra(self, *args)

    monkeypatch.setattr(hopf.HopfData, "validate", counted)
    monkeypatch.setattr(smash.SubalgebraU, "__init__", counted_u)
    work = {}
    for name, entry, suite in (("C6", c6, "smash"), ("C6", c6, "duality"),
                               ("C6", c6, "all"), ("sweedler4_smash_Q", smash_q, "opposite")):
        entry.hopf_data()
        computed.clear()
        calls.clear()
        scans[0] = 0
        run_suite(entry, suite)
        work[name, suite] = (scans[0], computed["algebra"] - scans[0], computed["hopf"],
                             calls["hopf"], calls["U"])
    # (scans, opposite answers, Hopf validations run, Hopf validations asked,
    # U builds)
    assert work == {("C6", "smash"): (2, 1, 1, 1, 1), ("C6", "duality"): (2, 1, 0, 0, 2),
                    ("C6", "all"): (3, 1, 2, 4, 2),
                    ("sweedler4_smash_Q", "opposite"): (4, 2, 0, 0, 2)}


# --- labels -----------------------------------------------------------------


def test_a_hopf_certificate_is_named_by_each_caller_in_its_own_report():
    # H and H** have equal tables under other names: the store keeps
    # indices, and each caller gets a report of its own
    h = get("sweedler4_Q").hopf_data()
    broken = hopf.HopfData(h.bialgebra, h.twisted_antipode, h.twisted_antipode)
    renamed = hopf.HopfData(hopf.BialgebraData(
        AlgebraData(free_module(QQ, ["p", "q", "s", "t"]), h.algebra.mult, h.algebra.unit),
        h.coalgebra), h.twisted_antipode, h.twisted_antipode)
    fresh = [verdicts(x.validate("x")) for x in (broken, renamed)]
    with certificate_store():
        reports = [x.validate("x") for x in (broken, renamed, broken)]
        assert [verdicts(rep) for rep in reports] == fresh + fresh[:1]
        reports[0].add("extra", "added to one report", True)
        assert [verdicts(rep) for rep in reports[1:]] == fresh[::-1]
        assert verdicts(broken.validate("x")) == fresh[0]


def test_equal_inputs_under_other_labels_report_their_own_witnesses():
    with certificate_store():
        for labels in (("a", "b"), ("x", "y")):
            x, y = labels
            broken = algebra(ZZ, BROKEN, (1, 0), labels)
            assert verdicts(broken.validate()) == [
                ("algebra.assoc", False, f"({x},{x},{y})"),
                ("algebra.unit", False, y)]
            target = algebra(ZZ, C2, (1, 0), labels)
            ident = LinearMap.identity(broken.carrier)
            assert algebra_morphism_witness(broken, target, ident) == f"({x},{y})"
            m = LinearMap(broken.carrier, target.carrier, [[2, 1], [1, 1]])
            inv = invert_map(m)
            assert inv.domain.labels == inv.codomain.labels == labels
            assert inv.matrix == ((1, -1), (-1, 2))


def relabelled_comodule(c: ComoduleAlgebraData, labels) -> ComoduleAlgebraData:
    B = c.algebra
    carrier = free_module(B.ring, labels)
    alg = AlgebraData(carrier, LinearMap(tensor_module(carrier, carrier), carrier,
                                         B.mult.matrix), B.unit)
    coaction = LinearMap(carrier, tensor_module(carrier, c.bialgebra.carrier),
                         c.coaction.matrix)
    return ComoduleAlgebraData(c.hopf, alg, coaction)


def test_comodules_differing_only_in_labels_share_their_coinvariants(computed):
    # B^coH does not depend on basis names, so its certificate key holds
    # none; it holds the ring, since equal integer tables differ by ring
    c = regular_comodule(get("Z_C2").hopf_data())
    other = relabelled_comodule(c, ("p", "q"))
    over_z3 = regular_comodule(group_algebra(Z3, 2))
    assert over_z3.coaction.sparse_columns() == c.coaction.sparse_columns()
    with certificate_store():
        coins = [coinvariants(x) for x in (c, other, c, other)]
        coin_z3 = coinvariants(over_z3)
    assert all(coin is coins[0] for coin in coins)
    assert coins[0].coordinates(sparse_vector(other.algebra.unit)) == ((0, 1),)
    assert coin_z3 is not coins[0] and coin_z3.module.ring == Z3
    assert computed["coinvariants"] == 2


# --- equivalence ------------------------------------------------------------


def rebased_sweedler(name, P):
    """Sweedler's Hopf algebra over Z/3 in the basis f_a = Σ_i P[i][a]·e_i."""
    def build():
        h = sweedler_hopf(Z3)
        return rebase_hopf(h, LinearMap(h.carrier, h.carrier, P))
    return CatalogEntry(name, "Sweedler's algebra over Z/3 in another basis",
                        "hopf", Z3, _build=build)


ENTRIES = {
    "sweedler4_Z3": lambda: get("sweedler4_Z3"),
    "gauss": lambda: get("gauss"),
    "gauss_cleft": lambda: get("gauss_cleft"),
    "sweedler4_smash_Q": lambda: get("sweedler4_smash_Q"),
    "triv_C2_span_eps": triv_c2_small_u,
    "rebased_a": lambda: rebased_sweedler("rebased_a", [
        [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
    "rebased_b": lambda: rebased_sweedler("rebased_b", [
        [1, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
}


@pytest.mark.parametrize("name", list(ENTRIES))
def test_canonical_reports_are_identical_without_the_store(monkeypatch, computed,
                                                           name):
    entry = ENTRIES[name]()
    entry.hopf_data()  # the payload is built before either run
    computed.clear()
    shared = run_suite(entry, "all").to_json(canonical=True)
    with_store = sum(computed.values())
    computed.clear()
    # run_suite then sets a variable that no kernel reads
    monkeypatch.setattr(suites, "CERTIFICATES", ContextVar("off", default=None))
    alone = run_suite(entry, "all").to_json(canonical=True)
    assert shared == alone
    assert with_store < sum(computed.values())
